package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"crowdjoin/internal/clustergraph"
)

// TestExample5Figure9 reproduces the parallel labeling walkthrough: with the
// running example in expected order, iteration 1 crowdsources
// {p1,p2,p3,p5,p6}, then p4 and p8 are deduced, and iteration 2
// crowdsources {p7}.
func TestExample5Figure9(t *testing.T) {
	pairs := runningExamplePairs()
	truth := runningExampleTruth()

	// Check Algorithm 3 in isolation for the first iteration.
	labels := make([]Label, len(pairs))
	batch, err := CrowdsourceablePairs(runningExampleObjects, pairs, labels)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []int{0, 1, 2, 4, 5} // p1,p2,p3,p5,p6
	if len(batch) != len(wantIDs) {
		t.Fatalf("iteration 1 selected %d pairs %v, want %v", len(batch), batch, wantIDs)
	}
	for i, p := range batch {
		if p.ID != wantIDs[i] {
			t.Fatalf("iteration 1 selection %v, want IDs %v", batch, wantIDs)
		}
	}

	// Full run.
	res, err := labelParallel(runningExampleObjects, pairs, Batched(truth), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RoundSizes) != 2 || res.RoundSizes[0] != 5 || res.RoundSizes[1] != 1 {
		t.Errorf("round sizes = %v, want [5 1]", res.RoundSizes)
	}
	if res.NumCrowdsourced != 6 {
		t.Errorf("crowdsourced %d pairs, want 6", res.NumCrowdsourced)
	}
	if res.Crowdsourced[3] || res.Crowdsourced[7] {
		t.Error("p4 and p8 must be deduced, not crowdsourced")
	}
	if !res.Crowdsourced[6] {
		t.Error("p7 must be crowdsourced (second iteration)")
	}
	for _, p := range pairs {
		want := LabelOf(truth.Matches(p.A, p.B))
		if res.Labels[p.ID] != want {
			t.Errorf("pair %v labeled %v, want %v", p, res.Labels[p.ID], want)
		}
	}
}

// TestSection51ChainAllParallel reproduces the Section 5.1 intuition: for
// the chain ⟨(o1,o2),(o2,o3),(o3,o4)⟩ every pair must be crowdsourced and
// all can go out in a single iteration.
func TestSection51ChainAllParallel(t *testing.T) {
	pairs := []Pair{
		{ID: 0, A: 0, B: 1, Likelihood: 0.9},
		{ID: 1, A: 1, B: 2, Likelihood: 0.8},
		{ID: 2, A: 2, B: 3, Likelihood: 0.7},
	}
	truth := &TruthOracle{Entity: []int32{0, 0, 1, 1}}
	res, err := labelParallel(4, pairs, Batched(truth), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RoundSizes) != 1 || res.RoundSizes[0] != 3 {
		t.Errorf("round sizes = %v, want [3]", res.RoundSizes)
	}
}

// TestParallelMatchesSequentialOnExpectedOrder: in the regime the paper
// evaluates — the expected (likelihood-descending) order with a perfect
// oracle and likelihoods that rank matching pairs first — the parallel
// algorithm crowdsources exactly as many pairs as the sequential one
// (Section 5.1, confirmed by Figure 13's "1237 crowdsourced pairs for
// both"). Verified over random instances.
func TestParallelMatchesSequentialOnExpectedOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, pairs, truth := randomInstance(rng, 12, 30)
		ord := ExpectedOrder(pairs)
		seq, err := LabelSequentialRun(n, ord, truth, Rules{}, RunOpts{})
		if err != nil {
			return false
		}
		par, err := labelParallel(n, ord, Batched(truth), RunOpts{})
		if err != nil {
			return false
		}
		if par.NumCrowdsourced != seq.NumCrowdsourced {
			return false
		}
		for _, p := range pairs {
			if par.Labels[p.ID] != LabelOf(truth.Matches(p.A, p.B)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelNearSequentialOnArbitraryOrders: on arbitrary orders the
// parallel and sequential counts may deviate slightly in either direction —
// the parallel deduction phase is position-free, so a later pair's answer
// can deduce a pair the sequential labeler crowdsourced at its turn, and
// the optimistic scan can conversely select a pair sequential deduces.
// The deviation stays small and every pair ends with a definite label
// (ground truth under a perfect oracle).
func TestParallelNearSequentialOnArbitraryOrders(t *testing.T) {
	f := func(seed int64, adversarial bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n, pairs, truth := randomInstance(rng, 12, 30)
		var oracle Oracle = truth
		if adversarial {
			oracle = OracleFunc(func(p Pair) Label {
				// Deterministic, truth-free answers.
				h := uint32(p.A)*2654435761 + uint32(p.B)*40503
				return LabelOf(h%3 == 0)
			})
		}
		ord := RandomOrder(pairs, rng)
		seq, err := LabelSequentialRun(n, ord, oracle, Rules{}, RunOpts{})
		if err != nil {
			return false
		}
		par, err := labelParallel(n, ord, Batched(oracle), RunOpts{})
		if err != nil {
			return false
		}
		dev := par.NumCrowdsourced - seq.NumCrowdsourced
		if dev < 0 {
			dev = -dev
		}
		// Empirically |dev| ≤ 4 on instances this size; 1+len(pairs)/4 is a
		// generous envelope that still catches systematic regressions.
		if dev > 1+len(pairs)/4 {
			return false
		}
		for _, p := range pairs {
			if par.Labels[p.ID] == Unlabeled {
				return false
			}
			if !adversarial && par.Labels[p.ID] != LabelOf(truth.Matches(p.A, p.B)) {
				return false
			}
		}
		total := 0
		for _, s := range par.RoundSizes {
			if s <= 0 {
				return false
			}
			total += s
		}
		return total == par.NumCrowdsourced
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelFirstRoundIsSpanningStructure: in the first iteration the
// selected pairs can never contain a cycle — each selection merges two
// distinct clusters — so the count is at most numObjects-1.
func TestParallelFirstRoundIsSpanningStructure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, pairs, _ := randomInstance(rng, 12, 40)
		labels := make([]Label, len(pairs))
		batch, err := CrowdsourceablePairs(n, pairs, labels)
		if err != nil {
			return false
		}
		return len(batch) <= n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCrowdsourceableSkipExcludesButStillAssumes: pairs marked in skip are
// not returned but still shape the deduction, matching the instant-decision
// modification of Algorithm 3.
func TestCrowdsourceableSkipExcludesButStillAssumes(t *testing.T) {
	pairs := runningExamplePairs()
	labels := make([]Label, len(pairs))
	skip := make([]bool, len(pairs))
	skip[0], skip[1] = true, true // p1, p2 already published
	scratchFree, err := CrowdsourceablePairs(runningExampleObjects, pairs, labels)
	if err != nil {
		t.Fatal(err)
	}
	g := clustergraph.New(runningExampleObjects)
	got := crowdsourceable(g, pairs, labels, skip)
	if len(got) != len(scratchFree)-2 {
		t.Fatalf("with skip got %d pairs, want %d", len(got), len(scratchFree)-2)
	}
	for _, p := range got {
		if skip[p.ID] {
			t.Errorf("skipped pair %v returned", p)
		}
	}
}

func TestLabelParallelRejectsShortBatch(t *testing.T) {
	pairs := triangle(0.9, 0.5, 0.1)
	bad := BatchOracleFunc(func(ps []Pair) []Label { return make([]Label, 0) })
	if _, err := labelParallel(3, pairs, bad, RunOpts{}); err == nil {
		t.Fatal("short batch answer was accepted")
	}
}

func TestLabelParallelEmpty(t *testing.T) {
	res, err := labelParallel(0, nil, Batched(triangleTruth()), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RoundSizes) != 0 || res.NumCrowdsourced != 0 {
		t.Errorf("empty run: rounds=%v crowdsourced=%d", res.RoundSizes, res.NumCrowdsourced)
	}
}
