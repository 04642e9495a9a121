package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// oneToOneInstance builds a strictly one-to-one bipartite instance: n
// objects on each side, the first matched of them paired i↔n+i, plus
// candidate pairs mixing true matches and cross non-matches.
func oneToOneInstance(rng *rand.Rand, n, matched, extraPairs int) (int, []Pair, *TruthOracle) {
	entity := make([]int32, 2*n)
	next := int32(0)
	for i := 0; i < n; i++ {
		entity[i] = next
		if i < matched {
			entity[n+i] = next
		}
		next++
	}
	for i := matched; i < n; i++ {
		entity[n+i] = next
		next++
	}
	truth := &TruthOracle{Entity: entity}
	var pairs []Pair
	seen := map[[2]int32]bool{}
	add := func(a, b int32, lik float64) {
		if seen[[2]int32{a, b}] {
			return
		}
		seen[[2]int32{a, b}] = true
		pairs = append(pairs, Pair{ID: len(pairs), A: a, B: b, Likelihood: lik})
	}
	for i := 0; i < matched; i++ {
		add(int32(i), int32(n+i), 0.6+0.4*rng.Float64())
	}
	for len(pairs) < matched+extraPairs {
		a, b := int32(rng.Intn(n)), int32(n+rng.Intn(n))
		if entity[a] == entity[b] {
			continue
		}
		add(a, b, 0.5*rng.Float64())
	}
	return 2 * n, pairs, truth
}

// TestOneToOneSavesOnBipartiteJoins: on strictly one-to-one data the
// constraint-augmented labeler crowdsources no more than the plain
// sequential labeler and never mislabels anything.
func TestOneToOneSavesOnBipartiteJoins(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(10)
		matched := rng.Intn(n + 1)
		numObjects, pairs, truth := oneToOneInstance(rng, n, matched, 3*n)
		order := ExpectedOrder(pairs)
		plain, err := LabelSequentialRun(numObjects, order, truth, Rules{}, RunOpts{})
		if err != nil {
			return false
		}
		oto, err := LabelSequentialRun(numObjects, order, truth, Rules{OneToOne: true}, RunOpts{})
		if err != nil {
			return false
		}
		if oto.NumCrowdsourced > plain.NumCrowdsourced {
			return false
		}
		if oto.NumCrowdsourced+oto.NumDeduced+oto.NumConstraintDeduced != len(pairs) {
			return false
		}
		for _, p := range pairs {
			if oto.Labels[p.ID] != LabelOf(truth.Matches(p.A, p.B)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestOneToOneStrictlySavesWhenConstraintBites: a concrete case where the
// constraint eliminates crowd questions transitivity cannot: one record
// with several suitors.
func TestOneToOneStrictlySavesWhenConstraintBites(t *testing.T) {
	// Objects: a0 matches b0; a1, a2 also paired with b0 as candidates.
	// After (a0, b0) = matching, both other pairs follow from one-to-one
	// but not from transitivity.
	pairs := []Pair{
		{ID: 0, A: 0, B: 3, Likelihood: 0.9}, // a0-b0 matching
		{ID: 1, A: 1, B: 3, Likelihood: 0.5}, // a1-b0
		{ID: 2, A: 2, B: 3, Likelihood: 0.4}, // a2-b0
	}
	truth := &TruthOracle{Entity: []int32{0, 1, 2, 0}}
	plain, err := LabelSequentialRun(4, pairs, truth, Rules{}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	oto, err := LabelSequentialRun(4, pairs, truth, Rules{OneToOne: true}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.NumCrowdsourced != 3 {
		t.Errorf("plain crowdsourced %d, want 3 (no transitive help)", plain.NumCrowdsourced)
	}
	if oto.NumCrowdsourced != 1 || oto.NumConstraintDeduced != 2 {
		t.Errorf("one-to-one crowdsourced %d constraint-deduced %d, want 1 and 2",
			oto.NumCrowdsourced, oto.NumConstraintDeduced)
	}
}

// TestOneToOneConstraintFeedsTransitivity: constraint-deduced non-matching
// labels participate in negative transitive deduction.
func TestOneToOneConstraintFeedsTransitivity(t *testing.T) {
	// (a0,b0)=M → (a1,b0)=N by constraint; with (a1,b1)=M crowdsourced,
	// (b0,b1)… needs same-side pairs; keep it simple: verify the N edge
	// exists by checking the deduction output of a following pair.
	pairs := []Pair{
		{ID: 0, A: 0, B: 2, Likelihood: 0.9}, // a0-b0 M
		{ID: 1, A: 1, B: 2, Likelihood: 0.8}, // a1-b0 N by constraint
		{ID: 2, A: 0, B: 1, Likelihood: 0.7}, // a0-a1: deducible N via b0? a0~b0, b0≠a1 → N
		{ID: 3, A: 1, B: 3, Likelihood: 0.6}, // a1-b1 M
		{ID: 4, A: 2, B: 3, Likelihood: 0.5}, // b0-b1: b0~a0… a1~b1, a1≠b0 → N deducible
	}
	truth := &TruthOracle{Entity: []int32{0, 1, 0, 1}}
	oto, err := LabelSequentialRun(4, pairs, truth, Rules{OneToOne: true}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if oto.NumCrowdsourced != 2 {
		t.Errorf("crowdsourced %d, want 2 (p1 by constraint, p3/p5 by transitivity)", oto.NumCrowdsourced)
	}
	for _, p := range pairs {
		if oto.Labels[p.ID] != LabelOf(truth.Matches(p.A, p.B)) {
			t.Errorf("pair %v labeled %v", p, oto.Labels[p.ID])
		}
	}
}

// TestOneToOneCanErrOnDuplicateData: when a source has duplicates the
// constraint produces wrong labels — the documented risk.
func TestOneToOneCanErrOnDuplicateData(t *testing.T) {
	// b0 and b1 are duplicates of the same product; a0 matches both.
	pairs := []Pair{
		{ID: 0, A: 0, B: 1, Likelihood: 0.9}, // a0-b0 M
		{ID: 1, A: 0, B: 2, Likelihood: 0.8}, // a0-b1 truly M, constraint says N
	}
	truth := &TruthOracle{Entity: []int32{0, 0, 0}}
	oto, err := LabelSequentialRun(3, pairs, truth, Rules{OneToOne: true}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if oto.Labels[1] != NonMatching {
		t.Fatalf("expected the constraint to (wrongly) force non-matching, got %v", oto.Labels[1])
	}
	if oto.NumConstraintDeduced != 1 {
		t.Errorf("NumConstraintDeduced = %d, want 1", oto.NumConstraintDeduced)
	}
}

func TestLabelWithBudgetUnlimitedEqualsSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, pairs, truth := randomInstance(rng, 12, 30)
		order := ExpectedOrder(pairs)
		seq, err := LabelSequentialRun(n, order, truth, Rules{}, RunOpts{})
		if err != nil {
			return false
		}
		bud, err := LabelSequentialRun(n, order, truth, budgetRules(len(pairs)), RunOpts{})
		if err != nil {
			return false
		}
		if bud.NumGuessed != 0 || bud.NumCrowdsourced != seq.NumCrowdsourced {
			return false
		}
		for id := range seq.Labels {
			if seq.Labels[id] != bud.Labels[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLabelWithBudgetZeroGuessesEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, pairs, truth := randomInstance(rng, 12, 30)
	order := ExpectedOrder(pairs)
	bud, err := LabelSequentialRun(n, order, truth, budgetRules(0), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if bud.NumCrowdsourced != 0 {
		t.Errorf("crowdsourced %d with zero budget", bud.NumCrowdsourced)
	}
	if bud.NumGuessed != len(pairs) {
		t.Errorf("guessed %d of %d (nothing is deducible without crowd labels)", bud.NumGuessed, len(pairs))
	}
	for _, p := range pairs {
		want := LabelOf(p.Likelihood >= 0.5)
		if bud.Labels[p.ID] != want {
			t.Errorf("pair %v guessed %v, want %v", p, bud.Labels[p.ID], want)
		}
	}
}

// TestLabelWithBudgetQualityGrowsWithBudget: F-measure with a meaningful
// budget beats the zero-budget machine-only quality, and the full budget
// reaches perfect quality under a perfect oracle. The instance's
// likelihoods overlap (machine guessing errs) so the budget has something
// to buy.
func TestLabelWithBudgetQualityGrowsWithBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, pairs, truth := randomChainHeavyInstance(rng, 60, 160)
	// Blur the likelihoods: matching pairs spread over [0.25, 1), the rest
	// over [0, 0.75), so a 0.5 guess threshold misclassifies a chunk.
	for i := range pairs {
		if truth.Matches(pairs[i].A, pairs[i].B) {
			pairs[i].Likelihood = 0.25 + 0.75*rng.Float64()
		} else {
			pairs[i].Likelihood = 0.75 * rng.Float64()
		}
	}
	order := ExpectedOrder(pairs)
	trueMatches := 0
	seenTrue := map[[2]int32]bool{}
	for _, p := range pairs {
		a, b := p.A, p.B
		if a > b {
			a, b = b, a
		}
		if truth.Matches(a, b) && !seenTrue[[2]int32{a, b}] {
			seenTrue[[2]int32{a, b}] = true
			trueMatches++
		}
	}
	quality := func(budget int) float64 {
		bud, err := LabelSequentialRun(n, order, truth, budgetRules(budget), RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		tp, fp := 0, 0
		for _, p := range pairs {
			if bud.Labels[p.ID] != Matching {
				continue
			}
			if truth.Matches(p.A, p.B) {
				tp++
			} else {
				fp++
			}
		}
		if tp == 0 {
			return 0
		}
		precision := float64(tp) / float64(tp+fp)
		recall := float64(tp) / float64(trueMatches)
		return 2 * precision * recall / (precision + recall)
	}
	full := quality(len(pairs))
	if full < 0.999 {
		t.Errorf("full budget F1 = %v, want 1 under a perfect oracle", full)
	}
	zero := quality(0)
	mid := quality(len(pairs) / 3)
	t.Logf("F1: zero=%.3f third=%.3f full=%.3f", zero, mid, full)
	if zero > 0.98 {
		t.Error("machine-only quality suspiciously perfect; blur failed")
	}
	if mid <= zero {
		t.Errorf("third budget F1 %.3f did not improve on machine-only %.3f", mid, zero)
	}
}

func TestLabelWithBudgetRejectsNegative(t *testing.T) {
	if _, err := LabelSequentialRun(3, triangle(0.9, 0.5, 0.1), triangleTruth(), budgetRules(-1), RunOpts{}); err == nil {
		t.Fatal("negative budget accepted")
	}
}

// TestLabelWithBudgetCancelledNeverGuesses: a run cancelled after its
// budget is spent sweeps only the deductions its answers imply. Unreached
// pairs stay Unlabeled instead of guessed, so the partial result cannot be
// mistaken for a completed budget run.
func TestLabelWithBudgetCancelledNeverGuesses(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, pairs, truth := randomInstance(rng, 12, 30)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	oracle := OracleFunc(func(p Pair) Label {
		cancel()
		return truth.Label(p)
	})
	bud, err := LabelSequentialRun(n, ExpectedOrder(pairs), oracle, budgetRules(1), RunOpts{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if bud.NumCrowdsourced != 1 || bud.NumGuessed != 0 {
		t.Fatalf("crowdsourced %d, guessed %d; want 1 and 0", bud.NumCrowdsourced, bud.NumGuessed)
	}
	if bud.NumCrowdsourced+bud.NumDeduced == len(pairs) {
		t.Fatal("one answer labeled every pair; the sweep had nothing to guess")
	}
}

// budgetRules is a budget of limit crowd questions with the 0.5 guess
// threshold every budget test here uses.
func budgetRules(limit int) Rules {
	return Rules{Budget: &Budget{Limit: limit, GuessThreshold: 0.5}}
}

// TestSequentialRulesRefuseOneToOneUnderBudget: the one-to-one constraint
// and a budget are two different sessions; asking for both is an error,
// not a silent pick.
func TestSequentialRulesRefuseOneToOneUnderBudget(t *testing.T) {
	rules := budgetRules(1)
	rules.OneToOne = true
	if _, err := LabelSequentialRun(3, triangle(0.9, 0.5, 0.1), triangleTruth(), rules, RunOpts{}); err == nil {
		t.Fatal("one-to-one under a budget accepted")
	}
}
