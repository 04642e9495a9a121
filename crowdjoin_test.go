package crowdjoin_test

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"crowdjoin"
	"crowdjoin/internal/candgen"
	"crowdjoin/internal/core"
	"crowdjoin/internal/dataset"
)

// exampleTexts: three records of one product, two of another, one loner.
var exampleTexts = []string{
	"apple ipad 2nd gen tablet 16gb black",
	"apple ipad two tablet 16gb black",
	"apple ipad 2 tablet black 16gb",
	"sony kdl40 television lcd 40 inch",
	"sony kdl40 lcd tv 40 inch black",
	"dyson dc25 vacuum upright",
}

// exampleTruth: objects 0-2 are one entity, 3-4 another, 5 alone.
var exampleEntity = []int32{0, 0, 0, 1, 1, 2}

func exampleOracle() crowdjoin.Oracle {
	return &crowdjoin.TruthOracle{Entity: exampleEntity}
}

func TestMatcherCandidates(t *testing.T) {
	m := crowdjoin.Matcher{Threshold: 0.3}
	pairs, err := m.Candidates(exampleTexts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("no candidates")
	}
	// All intra-entity pairs must be candidates at this threshold.
	found := map[[2]int32]bool{}
	for _, p := range pairs {
		found[[2]int32{p.A, p.B}] = true
	}
	for _, want := range [][2]int32{{0, 1}, {0, 2}, {1, 2}, {3, 4}} {
		if !found[want] {
			t.Errorf("missing intra-entity candidate %v", want)
		}
	}
	for i, p := range pairs {
		if p.ID != i {
			t.Fatalf("pair IDs not dense: %v at %d", p, i)
		}
		if i > 0 && p.Likelihood > pairs[i-1].Likelihood {
			t.Fatal("pairs not sorted by likelihood descending")
		}
	}
}

func TestMatcherValidatesThreshold(t *testing.T) {
	if _, err := (crowdjoin.Matcher{Threshold: 0}).Candidates(exampleTexts); err == nil {
		t.Error("threshold 0 accepted")
	}
	if _, err := (crowdjoin.Matcher{Threshold: 2}).Candidates(exampleTexts); err == nil {
		t.Error("threshold 2 accepted")
	}
}

// TestNaNThresholdsRejected: NaN fails every comparison, so a range check
// written as t <= 0 || t > 1 lets it through. Every entry point that checks
// a threshold, a triage band, a pair likelihood, a budget's guess or a
// simulated crowd's parameter must return its range error for NaN, and that
// error names the value.
func TestNaNThresholdsRejected(t *testing.T) {
	nan := math.NaN()
	d := &dataset.Dataset{Name: "nan", NumEntities: 1}
	for i, txt := range exampleTexts {
		d.Records = append(d.Records, dataset.Record{
			ID:     int32(i),
			Source: "a",
			Fields: []dataset.Field{{Name: "text", Value: txt}},
		})
	}
	s := candgen.NewScorer(d, candgen.Unweighted)
	join := func(opts ...crowdjoin.JoinOption) error {
		j, err := crowdjoin.NewJoin(opts...)
		if err != nil {
			return err
		}
		_, err = j.Run(context.Background())
		return err
	}
	run := func(opts ...crowdjoin.JoinOption) error {
		return join(append([]crowdjoin.JoinOption{
			crowdjoin.WithTexts(exampleTexts), crowdjoin.WithOracle(exampleOracle()),
		}, opts...)...)
	}
	amt := func(edit func(*crowdjoin.AMTConfig)) error {
		cfg := crowdjoin.DefaultAMTConfig()
		edit(&cfg)
		_, err := crowdjoin.NewAMTSimulator(func(a, b int32) bool { return false }, cfg)
		return err
	}
	for _, c := range []struct {
		name string
		err  func() error
	}{
		{"candgen.Candidates", func() error { _, err := candgen.Candidates(d, s, nan); return err }},
		{"candgen.ExhaustiveCandidates", func() error { _, err := candgen.ExhaustiveCandidates(d, s, nan); return err }},
		{"candgen.BandCandidates floor", func() error { _, err := candgen.BandCandidates(d, s, nan, 2, nil); return err }},
		{"candgen.BandCandidates ceiling", func() error { _, err := candgen.BandCandidates(d, s, 0.3, nan, nil); return err }},
		{"candgen.NewStreamIndex", func() error { _, err := candgen.NewStreamIndex(candgen.Unweighted, nan, false); return err }},
		{"Matcher.Candidates", func() error { _, err := (crowdjoin.Matcher{Threshold: nan}).Candidates(exampleTexts); return err }},
		{"Matcher in a cascade", func() error {
			return run(crowdjoin.WithMatcher(crowdjoin.Matcher{Threshold: nan}), crowdjoin.WithCascade(0.5))
		}},
		{"WithCascade", func() error { return run(crowdjoin.WithCascade(0.5, nan)) }},
		{"core.TriageBands.Validate", func() error { return core.TriageBands{AcceptAbove: nan, RejectBelow: 0.1}.Validate() }},
		{"WithTriage", func() error { return run(crowdjoin.WithTriage(nan, 0.1)) }},
		{"WithPairs likelihood", func() error {
			pairs := []crowdjoin.Pair{{ID: 0, A: 0, B: 1, Likelihood: nan}}
			return join(crowdjoin.WithPairs(2, pairs), crowdjoin.WithOracle(exampleOracle()))
		}},
		{"BudgetStrategy guess", func() error { return run(crowdjoin.WithStrategy(crowdjoin.BudgetStrategy(0, nan))) }},
		{"NewAMTSimulator SpammerFraction", func() error {
			return amt(func(c *crowdjoin.AMTConfig) { c.SpammerFraction = nan })
		}},
		{"NewAMTSimulator latency", func() error {
			return amt(func(c *crowdjoin.AMTConfig) { c.ServiceMeanHours = nan })
		}},
	} {
		err := c.err()
		if err == nil || !strings.Contains(err.Error(), "NaN") {
			t.Errorf("%s: NaN gave error %v, want the range error naming NaN", c.name, err)
		}
	}
	if err := run(crowdjoin.WithStrategy(crowdjoin.BudgetStrategy(0, 7))); err == nil || !strings.Contains(err.Error(), "guess 7 outside [0,1]") {
		t.Errorf("BudgetStrategy(0, 7): error %v, want the guess range error", err)
	}
}

func TestMatcherCandidatesAcross(t *testing.T) {
	m := crowdjoin.Matcher{Threshold: 0.2}
	a := exampleTexts[:3]
	b := exampleTexts[3:]
	pairs, err := m.CandidatesAcross(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		lo, hi := p.A, p.B
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi < 3 || lo >= 3 {
			t.Errorf("pair %v does not span the two sources", p)
		}
	}
}

func TestMatcherSimilarity(t *testing.T) {
	m := crowdjoin.Matcher{Threshold: 0.5}
	same := m.Similarity("apple ipad tablet", "apple ipad tablet")
	if same != 1 {
		t.Errorf("identical texts similarity = %v, want 1", same)
	}
	if s := m.Similarity("apple ipad", "dyson vacuum"); s != 0 {
		t.Errorf("disjoint texts similarity = %v, want 0", s)
	}
}

func TestEndToEndSequential(t *testing.T) {
	m := crowdjoin.Matcher{Threshold: 0.3}
	pairs, err := m.Candidates(exampleTexts)
	if err != nil {
		t.Fatal(err)
	}
	res := runJoin(t, crowdjoin.WithPairs(len(exampleTexts), pairs), crowdjoin.WithOracle(exampleOracle()))
	if res.NumCrowdsourced+res.NumDeduced != len(pairs) {
		t.Fatalf("crowdsourced %d + deduced %d != %d", res.NumCrowdsourced, res.NumDeduced, len(pairs))
	}
	if res.NumDeduced == 0 {
		t.Error("expected at least one deduction in the ipad triangle")
	}
	clusters, err := crowdjoin.Clusters(len(exampleTexts), pairs, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	// {0,1,2}, {3,4}, {5}.
	if len(clusters) != 3 {
		t.Fatalf("clusters = %v, want 3 groups", clusters)
	}
	if len(clusters[0]) != 3 || clusters[0][0] != 0 {
		t.Errorf("first cluster = %v, want [0 1 2]", clusters[0])
	}
}

func TestEndToEndParallel(t *testing.T) {
	m := crowdjoin.Matcher{Threshold: 0.3}
	pairs, err := m.Candidates(exampleTexts)
	if err != nil {
		t.Fatal(err)
	}
	seq := runJoin(t, crowdjoin.WithPairs(len(exampleTexts), pairs), crowdjoin.WithOracle(exampleOracle()))
	par := runJoin(t, crowdjoin.WithPairs(len(exampleTexts), pairs),
		crowdjoin.WithStrategy(crowdjoin.ParallelStrategy),
		crowdjoin.WithBatchOracle(crowdjoin.BatchOracleFunc(func(ps []crowdjoin.Pair) []crowdjoin.Label {
			out := make([]crowdjoin.Label, len(ps))
			for i, p := range ps {
				out[i] = exampleOracle().Label(p)
			}
			return out
		})))
	if par.NumCrowdsourced != seq.NumCrowdsourced {
		t.Errorf("parallel crowdsourced %d, sequential %d", par.NumCrowdsourced, seq.NumCrowdsourced)
	}
	if len(par.RoundSizes) >= par.NumCrowdsourced && par.NumCrowdsourced > 1 {
		t.Errorf("no parallelism: %v", par.RoundSizes)
	}
}

func TestEndToEndOnSimulatedCrowd(t *testing.T) {
	m := crowdjoin.Matcher{Threshold: 0.3}
	pairs, err := m.Candidates(exampleTexts)
	if err != nil {
		t.Fatal(err)
	}
	pf := crowdjoin.NewSimulatedCrowd(exampleOracle(), crowdjoin.SelectRandom, rand.New(rand.NewSource(1)))
	res := runJoin(t, crowdjoin.WithPairs(len(exampleTexts), pairs),
		crowdjoin.WithStrategy(crowdjoin.PlatformStrategy), crowdjoin.WithPlatform(pf), crowdjoin.WithInstantDecisions(true))
	for _, p := range pairs {
		want := crowdjoin.Matching
		if exampleEntity[p.A] != exampleEntity[p.B] {
			want = crowdjoin.NonMatching
		}
		if res.Labels[p.ID] != want {
			t.Errorf("pair %v labeled %v, want %v", p, res.Labels[p.ID], want)
		}
	}
}

func TestEndToEndOnAMTSimulator(t *testing.T) {
	m := crowdjoin.Matcher{Threshold: 0.3}
	pairs, err := m.Candidates(exampleTexts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := crowdjoin.DefaultAMTConfig()
	cfg.BatchSize = 2
	truth := exampleOracle().(*crowdjoin.TruthOracle)
	pf, err := crowdjoin.NewAMTSimulator(truth.Matches, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := runJoin(t, crowdjoin.WithPairs(len(exampleTexts), pairs),
		crowdjoin.WithStrategy(crowdjoin.PlatformStrategy), crowdjoin.WithPlatform(pf), crowdjoin.WithInstantDecisions(true))
	if res.NumCrowdsourced == 0 || pf.HITs() == 0 {
		t.Fatalf("nothing crowdsourced: %d pairs, %d HITs", res.NumCrowdsourced, pf.HITs())
	}
	if pf.Now() <= 0 {
		t.Error("no simulated time elapsed")
	}
	seq, err := crowdjoin.ReplayHITsSequentially(pf.HITLog(), truth.Matches, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq <= 0 {
		t.Error("sequential replay took no time")
	}
}

func TestDeducer(t *testing.T) {
	d := crowdjoin.NewDeducer(4)
	if err := d.Add(0, 1, true); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(1, 2, false); err != nil {
		t.Fatal(err)
	}
	if l, ok := d.Deduce(0, 2); !ok || l != crowdjoin.NonMatching {
		t.Errorf("Deduce(0,2) = %v,%v; want non-matching,true", l, ok)
	}
	if _, ok := d.Deduce(0, 3); ok {
		t.Error("Deduce(0,3) should be unknown")
	}
	if err := d.Add(0, 2, true); err == nil {
		t.Error("conflicting label accepted")
	}
}

func TestClustersIgnoresNonMatching(t *testing.T) {
	pairs := []crowdjoin.Pair{
		{ID: 0, A: 0, B: 1, Likelihood: 0.9},
		{ID: 1, A: 1, B: 2, Likelihood: 0.8},
	}
	labels := []crowdjoin.Label{crowdjoin.Matching, crowdjoin.NonMatching}
	clusters, err := crowdjoin.Clusters(3, pairs, labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 {
		t.Fatalf("clusters = %v, want {{0,1},{2}}", clusters)
	}
}

func TestClustersLabelLengthValidation(t *testing.T) {
	pairs := []crowdjoin.Pair{{ID: 0, A: 0, B: 1, Likelihood: 0.9}}
	if _, err := crowdjoin.Clusters(2, pairs, nil); err == nil {
		t.Error("short labels accepted")
	}
}

// TestClustersRejectsOutOfRangePairIDs: caller-supplied pairs with non-dense
// or out-of-range IDs (or object ids) must produce an error, not an
// out-of-range panic on the labels slice.
func TestClustersRejectsOutOfRangePairIDs(t *testing.T) {
	labels := []crowdjoin.Label{crowdjoin.Matching, crowdjoin.Matching}
	cases := []struct {
		name  string
		pairs []crowdjoin.Pair
	}{
		{"ID beyond labels", []crowdjoin.Pair{{ID: 7, A: 0, B: 1, Likelihood: 0.9}}},
		{"negative ID", []crowdjoin.Pair{{ID: -1, A: 0, B: 1, Likelihood: 0.9}}},
		{"object beyond numObjects", []crowdjoin.Pair{{ID: 0, A: 0, B: 9, Likelihood: 0.9}}},
		{"negative object", []crowdjoin.Pair{{ID: 0, A: -2, B: 1, Likelihood: 0.9}}},
	}
	for _, tc := range cases {
		if _, err := crowdjoin.Clusters(3, tc.pairs, labels); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Sparse but in-range IDs are legal: labels may cover a superset.
	pairs := []crowdjoin.Pair{{ID: 1, A: 0, B: 1, Likelihood: 0.9}}
	clusters, err := crowdjoin.Clusters(3, pairs, labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 {
		t.Fatalf("clusters = %v, want {{0,1},{2}}", clusters)
	}
}
