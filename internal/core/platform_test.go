package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLabelOnPlatformRunningExample(t *testing.T) {
	pairs := runningExamplePairs()
	truth := runningExampleTruth()
	for _, instant := range []bool{false, true} {
		pf := NewSimPlatform(truth, SelectFIFO, nil)
		res, err := labelOnOneShard(runningExampleObjects, pairs, pf, instant)
		if err != nil {
			t.Fatalf("instant=%v: %v", instant, err)
		}
		if res.NumCrowdsourced != 6 {
			t.Errorf("instant=%v: crowdsourced %d, want 6", instant, res.NumCrowdsourced)
		}
		for _, p := range pairs {
			want := LabelOf(truth.Matches(p.A, p.B))
			if res.Labels[p.ID] != want {
				t.Errorf("instant=%v: pair %v labeled %v, want %v", instant, p, res.Labels[p.ID], want)
			}
		}
		if len(res.Availability) != res.NumCrowdsourced {
			t.Errorf("instant=%v: %d availability samples for %d labeled pairs",
				instant, len(res.Availability), res.NumCrowdsourced)
		}
	}
}

// TestInstantNeverExceedsSequentialCount: for the same order and truth
// oracle, the plain parallel driver and the instant-decision driver
// crowdsource at most as many pairs as the sequential labeler — the
// Section 5 "without increasing the total number of crowdsourced pairs"
// claim — under every worker-selection policy, and always produce
// ground-truth labels.
func TestInstantNeverExceedsSequentialCount(t *testing.T) {
	policies := []SelectionPolicy{SelectFIFO, SelectRandom, SelectAscendingLikelihood}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, pairs, truth := randomInstance(rng, 12, 30)
		ord := ExpectedOrder(pairs)
		seq, err := LabelSequentialRun(n, ord, truth, Rules{}, RunOpts{})
		if err != nil {
			return false
		}
		for _, policy := range policies {
			for _, instant := range []bool{false, true} {
				pf := NewSimPlatform(truth, policy, rand.New(rand.NewSource(seed+1)))
				res, err := labelOnOneShard(n, ord, pf, instant)
				if err != nil {
					return false
				}
				if res.NumCrowdsourced > seq.NumCrowdsourced {
					return false
				}
				for _, p := range pairs {
					if res.Labels[p.ID] != LabelOf(truth.Matches(p.A, p.B)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestInstantKeepsPlatformBusier: with instant decision, availability after
// each labeled pair is at least the plain-parallel driver's at the same
// point, on average — the Figure 15 effect. We assert on the sum of the
// availability series rather than pointwise (worker randomness shifts
// individual points).
func TestInstantKeepsPlatformBusier(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n, pairs, truth := randomChainHeavyInstance(rng, 60, 150)
	ord := ExpectedOrder(pairs)

	sum := func(instant bool) int {
		pf := NewSimPlatform(truth, SelectRandom, rand.New(rand.NewSource(7)))
		res, err := labelOnOneShard(n, ord, pf, instant)
		if err != nil {
			t.Fatal(err)
		}
		s := 0
		for _, a := range res.Availability {
			s += a
		}
		return s
	}
	plain, inst := sum(false), sum(true)
	if inst < plain {
		t.Errorf("instant availability mass %d < plain %d; instant decision should keep more pairs available", inst, plain)
	}
}

// TestNonMatchingFirstBeatsRandomAvailability: with instant decision, the
// ascending-likelihood policy (non-matching first) keeps more work available
// than random selection in the regime the paper evaluates — matching-heavy
// published queues, as produced by datasets with sizable clusters. There,
// most published pairs are matching, whose answers never trigger publishes;
// NF spends the crowd's next answers on the non-matching pairs that do.
//
// (In non-matching-heavy instances the effect can invert: an answer to the
// pair at order position j only unlocks pairs after j, and NF consumes the
// order tail first. The paper's Figure 15 workloads are matching-heavy.)
func TestNonMatchingFirstBeatsRandomAvailability(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, pairs, truth := matchHeavyInstance(rng, 60, 6, 40)
		ord := ExpectedOrder(pairs)

		mass := func(policy SelectionPolicy) int {
			pf := NewSimPlatform(truth, policy, rand.New(rand.NewSource(seed*7+2)))
			res, err := labelOnOneShard(n, ord, pf, true)
			if err != nil {
				t.Fatal(err)
			}
			s := 0
			for _, a := range res.Availability {
				s += a
			}
			return s
		}
		nf, random := mass(SelectAscendingLikelihood), mass(SelectRandom)
		if nf < random {
			t.Errorf("seed %d: NF availability mass %d < random %d", seed, nf, random)
		}
	}
}

// matchHeavyInstance mirrors the paper's Figure 15 regime: clusters of size
// clusterSize with every intra-cluster pair in the candidate set (matching-
// heavy), plus numCross random cross-cluster (non-matching) pairs.
func matchHeavyInstance(rng *rand.Rand, n, clusterSize, numCross int) (int, []Pair, *TruthOracle) {
	entity := make([]int32, n)
	for i := range entity {
		entity[i] = int32(i / clusterSize)
	}
	truth := &TruthOracle{Entity: entity}
	var pairs []Pair
	for e := 0; e < n/clusterSize; e++ {
		base := int32(e * clusterSize)
		for i := int32(0); i < int32(clusterSize); i++ {
			for j := i + 1; j < int32(clusterSize); j++ {
				pairs = append(pairs, Pair{ID: len(pairs), A: base + i, B: base + j, Likelihood: 0.55 + rng.Float64()*0.45})
			}
		}
	}
	seen := map[[2]int32]bool{}
	for cross := 0; cross < numCross; {
		a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
		if a == b || entity[a] == entity[b] {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]int32{a, b}] {
			continue
		}
		seen[[2]int32{a, b}] = true
		pairs = append(pairs, Pair{ID: len(pairs), A: a, B: b, Likelihood: rng.Float64() * 0.45})
		cross++
	}
	return n, pairs, truth
}

// TestPlatformPublishAccounting: publish sizes sum to the crowdsourced
// count, and no pair is published twice.
func TestPlatformPublishAccounting(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, pairs, truth := randomInstance(rng, 10, 25)
		pf := NewSimPlatform(truth, SelectRandom, rand.New(rand.NewSource(seed)))
		res, err := labelOnOneShard(n, ExpectedOrder(pairs), pf, true)
		if err != nil {
			return false
		}
		total := 0
		for _, s := range res.PublishSizes {
			if s <= 0 {
				return false
			}
			total += s
		}
		return total == res.NumCrowdsourced
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomChainHeavyInstance builds an instance with sizable clusters so that
// transitive deduction and publish dynamics are non-trivial.
func randomChainHeavyInstance(rng *rand.Rand, n, k int) (int, []Pair, *TruthOracle) {
	entity := make([]int32, n)
	numEntities := n / 6
	if numEntities < 2 {
		numEntities = 2
	}
	for i := range entity {
		entity[i] = int32(rng.Intn(numEntities))
	}
	truth := &TruthOracle{Entity: entity}
	var pairs []Pair
	seen := map[[2]int32]bool{}
	for len(pairs) < k {
		a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]int32{a, b}] {
			continue
		}
		seen[[2]int32{a, b}] = true
		lik := rng.Float64() * 0.45
		if entity[a] == entity[b] {
			lik = 0.55 + rng.Float64()*0.45
		}
		pairs = append(pairs, Pair{ID: len(pairs), A: a, B: b, Likelihood: lik})
	}
	return n, pairs, truth
}

func TestSimPlatformFIFO(t *testing.T) {
	truth := runningExampleTruth()
	pf := NewSimPlatform(truth, SelectFIFO, nil)
	pairs := runningExamplePairs()
	pf.Publish(pairs[:3])
	for i := 0; i < 3; i++ {
		p, _, ok := pf.NextLabel()
		if !ok {
			t.Fatal("platform drained early")
		}
		if p.ID != i {
			t.Errorf("FIFO returned pair %d at position %d", p.ID, i)
		}
	}
	if _, _, ok := pf.NextLabel(); ok {
		t.Error("drained platform still returned a label")
	}
}

func TestSimPlatformAscendingLikelihood(t *testing.T) {
	truth := runningExampleTruth()
	pf := NewSimPlatform(truth, SelectAscendingLikelihood, nil)
	pairs := runningExamplePairs()
	pf.Publish(pairs)
	last := -1.0
	for {
		p, _, ok := pf.NextLabel()
		if !ok {
			break
		}
		if p.Likelihood < last {
			t.Fatalf("likelihood %v after %v; want ascending", p.Likelihood, last)
		}
		last = p.Likelihood
	}
}
