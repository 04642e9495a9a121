package crowdjoin_test

import (
	"math/rand"
	"testing"

	"crowdjoin"
)

func TestLabelSequentialOneToOneFacade(t *testing.T) {
	// a0 matches b0; a1 and a2 court b0 too. One crowd question suffices.
	pairs := []crowdjoin.Pair{
		{ID: 0, A: 0, B: 3, Likelihood: 0.9},
		{ID: 1, A: 1, B: 3, Likelihood: 0.5},
		{ID: 2, A: 2, B: 3, Likelihood: 0.4},
	}
	truth := &crowdjoin.TruthOracle{Entity: []int32{0, 1, 2, 0}}
	res := runJoin(t, crowdjoin.WithPairs(4, pairs), crowdjoin.WithOrder(crowdjoin.OrderAsGiven),
		crowdjoin.WithStrategy(crowdjoin.OneToOneStrategy), crowdjoin.WithOracle(truth))
	if res.NumCrowdsourced != 1 || res.NumConstraintDeduced != 2 {
		t.Errorf("crowdsourced=%d constraint-deduced=%d, want 1 and 2",
			res.NumCrowdsourced, res.NumConstraintDeduced)
	}
}

func TestLabelWithBudgetFacade(t *testing.T) {
	m := crowdjoin.Matcher{Threshold: 0.3}
	pairs, err := m.Candidates(exampleTexts)
	if err != nil {
		t.Fatal(err)
	}
	res := runJoin(t, crowdjoin.WithPairs(len(exampleTexts), pairs),
		crowdjoin.WithStrategy(crowdjoin.BudgetStrategy(1, 0.5)), crowdjoin.WithOracle(exampleOracle()))
	if res.NumCrowdsourced != 1 {
		t.Errorf("crowdsourced %d, want exactly the budget 1", res.NumCrowdsourced)
	}
	if res.NumCrowdsourced+res.NumDeduced+res.NumGuessed != len(pairs) {
		t.Errorf("labels don't partition: %d+%d+%d != %d",
			res.NumCrowdsourced, res.NumDeduced, res.NumGuessed, len(pairs))
	}
}

func TestLabelOnPlatformOptsFacade(t *testing.T) {
	m := crowdjoin.Matcher{Threshold: 0.3}
	pairs, err := m.Candidates(exampleTexts)
	if err != nil {
		t.Fatal(err)
	}
	for _, instant := range []bool{false, true} {
		pf := crowdjoin.NewSimulatedCrowd(exampleOracle(), crowdjoin.SelectRandom, rand.New(rand.NewSource(2)))
		res := runJoin(t, crowdjoin.WithPairs(len(exampleTexts), pairs),
			crowdjoin.WithStrategy(crowdjoin.PlatformStrategy), crowdjoin.WithPlatform(pf),
			crowdjoin.WithInstantDecisions(instant))
		for _, p := range pairs {
			want := crowdjoin.Matching
			if exampleEntity[p.A] != exampleEntity[p.B] {
				want = crowdjoin.NonMatching
			}
			if res.Labels[p.ID] != want {
				t.Errorf("instant=%v: pair %v labeled %v, want %v", instant, p, res.Labels[p.ID], want)
			}
		}
	}
}
