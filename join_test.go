package crowdjoin_test

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"crowdjoin"
	"crowdjoin/internal/core"
)

// randomJoinCase builds a randomized candidate set over a clustered object
// universe: entities of skewed sizes, candidate pairs biased toward
// intra-entity pairs, likelihoods correlated with the truth so the expected
// order is meaningful. Returned pairs carry dense IDs in likelihood order.
func randomJoinCase(rng *rand.Rand) (numObjects int, pairs []crowdjoin.Pair, entity []int32) {
	numObjects = 20 + rng.Intn(60)
	entity = make([]int32, numObjects)
	e := int32(0)
	for i := 0; i < numObjects; {
		size := 1 + rng.Intn(6)
		for k := 0; k < size && i < numObjects; k++ {
			entity[i] = e
			i++
		}
		e++
	}
	rng.Shuffle(numObjects, func(i, j int) { entity[i], entity[j] = entity[j], entity[i] })
	seen := map[[2]int32]bool{}
	tries := numObjects * 4
	for t := 0; t < tries; t++ {
		a := int32(rng.Intn(numObjects))
		b := int32(rng.Intn(numObjects))
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
		var lik float64
		if entity[a] == entity[b] {
			lik = 0.5 + 0.5*rng.Float64()
		} else {
			lik = 0.7 * rng.Float64()
		}
		pairs = append(pairs, crowdjoin.Pair{A: a, B: b, Likelihood: lik})
	}
	// Dense IDs in likelihood-descending order, like the matcher produces.
	sorted := crowdjoin.ExpectedOrder(pairs)
	for i := range sorted {
		sorted[i].ID = i
	}
	return numObjects, sorted, entity
}

// flakyOracle answers inconsistently but deterministically (hash parity),
// to exercise the conflict-override path.
func flakyOracle() crowdjoin.Oracle {
	return crowdjoin.OracleFunc(func(p crowdjoin.Pair) crowdjoin.Label {
		if (p.A*31+p.B*17)%3 == 0 {
			return crowdjoin.Matching
		}
		return crowdjoin.NonMatching
	})
}

// labelRounds runs the parallel labeler as ParallelStrategy does: the
// round adapter over oracle, with crowd concurrency k (under the
// balance-aware router when balanced is set), and the round driver on pt.
func labelRounds(pt *core.Partition, oracle core.BatchOracle, k int, balanced bool) (*core.TraceResult, error) {
	rounds := core.NewRoundPlatform(pt, oracle, k, balanced, core.RunOpts{})
	r, err := core.LabelPartitionedOnPlatformRun(pt, rounds, false, core.RunOpts{})
	if cerr := rounds.Close(); cerr != nil && err != nil {
		return nil, cerr
	}
	return r, err
}

// TestJoinMatchesCoreDrivers: Join.Run must reproduce, byte for byte, what
// the internal/core labeling kernels produce for the sequential, parallel,
// one-to-one, and budget strategies, on randomized datasets — the
// differential acceptance test for the session redesign. The sequential
// family's reference is LabelSequentialRun over the whole order, which the
// session reaches through a one-shard partition. The parallel reference is
// the round adapter on the round driver, which internal/core pins to its
// from-scratch reference (parallel_reference_test.go), as it pins the
// driver's PlatformStrategy path (platform_reference_test.go).
func TestJoinMatchesCoreDrivers(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		numObjects, pairs, entity := randomJoinCase(rng)
		order := core.ExpectedOrder(pairs)
		oracle := &core.TruthOracle{Entity: entity}

		runJoin := func(opts ...crowdjoin.JoinOption) *crowdjoin.JoinResult {
			t.Helper()
			opts = append([]crowdjoin.JoinOption{crowdjoin.WithPairs(numObjects, pairs)}, opts...)
			j, err := crowdjoin.NewJoin(opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := j.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		checkCore := func(name string, want *core.Result, got *crowdjoin.JoinResult) {
			t.Helper()
			if !reflect.DeepEqual(want.Labels, got.Labels) {
				t.Fatalf("trial %d %s: labels differ", trial, name)
			}
			if !reflect.DeepEqual(want.Crowdsourced, got.Crowdsourced) {
				t.Fatalf("trial %d %s: crowdsourced flags differ", trial, name)
			}
			if want.NumCrowdsourced != got.NumCrowdsourced || want.NumDeduced != got.NumDeduced {
				t.Fatalf("trial %d %s: counts differ: core %d/%d, join %d/%d", trial, name,
					want.NumCrowdsourced, want.NumDeduced, got.NumCrowdsourced, got.NumDeduced)
			}
			if !reflect.DeepEqual(want.Labels, gotOrderLabels(got)) {
				t.Fatalf("trial %d %s: order does not match labels", trial, name)
			}
		}

		// Sequential.
		seq, err := core.LabelSequentialRun(numObjects, order, oracle, core.Rules{}, core.RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		checkCore("sequential", &seq.Result,
			runJoin(crowdjoin.WithStrategy(crowdjoin.SequentialStrategy), crowdjoin.WithOracle(oracle)))

		// Parallel, consistent and inconsistent crowds.
		for _, tc := range []struct {
			name string
			o    crowdjoin.Oracle
		}{{"parallel", oracle}, {"parallel-flaky", flakyOracle()}} {
			single, err := core.SinglePartition(numObjects, order)
			if err != nil {
				t.Fatal(err)
			}
			par, err := labelRounds(single, core.Batched(tc.o), 1, false)
			if err != nil {
				t.Fatal(err)
			}
			got := runJoin(crowdjoin.WithStrategy(crowdjoin.ParallelStrategy), crowdjoin.WithBatchOracle(core.Batched(tc.o)))
			checkCore(tc.name, &par.Result, got)
			if !reflect.DeepEqual(par.RoundSizes, got.RoundSizes) || par.Conflicts != got.Conflicts {
				t.Fatalf("trial %d %s: rounds/conflicts differ", trial, tc.name)
			}
		}

		// One-to-one.
		oto, err := core.LabelSequentialRun(numObjects, order, oracle, core.Rules{OneToOne: true}, core.RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		gotOto := runJoin(crowdjoin.WithStrategy(crowdjoin.OneToOneStrategy), crowdjoin.WithOracle(oracle))
		checkCore("one-to-one", &oto.Result, gotOto)
		if oto.NumConstraintDeduced != gotOto.NumConstraintDeduced {
			t.Fatalf("trial %d one-to-one: constraint counts differ", trial)
		}

		// Budget, several budgets.
		for _, budget := range []int{0, len(pairs) / 4, len(pairs)} {
			rules := core.Rules{Budget: &core.Budget{Limit: budget, GuessThreshold: 0.5}}
			bud, err := core.LabelSequentialRun(numObjects, order, oracle, rules, core.RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			gotBud := runJoin(crowdjoin.WithStrategy(crowdjoin.BudgetStrategy(budget, 0.5)), crowdjoin.WithOracle(oracle))
			checkCore("budget", &bud.Result, gotBud)
			if !reflect.DeepEqual(bud.Guessed, gotBud.Guessed) || bud.NumGuessed != gotBud.NumGuessed {
				t.Fatalf("trial %d budget %d: guesses differ", trial, budget)
			}
		}
	}
}

// gotOrderLabels re-reads the labels through the result's Order slice,
// verifying Order carries the same dense IDs the labels are indexed by.
func gotOrderLabels(r *crowdjoin.JoinResult) []crowdjoin.Label {
	out := make([]crowdjoin.Label, len(r.Order))
	for _, p := range r.Order {
		out[p.ID] = r.Labels[p.ID]
	}
	return out
}

// TestOrderExpectedSkipsSortedInput: candidates already in expected order
// (likelihood descending, ties by ID) come back as the same slice; other
// input gets ExpectedOrder's sorted copy, also inside a WithPairs session,
// and the caller's slice is left as it was.
func TestOrderExpectedSkipsSortedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	numObjects, sorted, entity := randomJoinCase(rng)
	if got := crowdjoin.OrderExpected(sorted); &got[0] != &sorted[0] || len(got) != len(sorted) {
		t.Fatal("OrderExpected copied input already in expected order")
	}
	shuffled := slices.Clone(sorted)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	given := slices.Clone(shuffled)
	if got := crowdjoin.OrderExpected(shuffled); &got[0] == &shuffled[0] || !reflect.DeepEqual(got, sorted) {
		t.Fatal("OrderExpected did not return a sorted copy of unordered input")
	}
	j, err := crowdjoin.NewJoin(crowdjoin.WithPairs(numObjects, shuffled), crowdjoin.WithOracle(&core.TruthOracle{Entity: entity}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Order, sorted) {
		t.Fatal("the default ordering did not label unordered WithPairs input in expected order")
	}
	if !reflect.DeepEqual(shuffled, given) {
		t.Fatal("ordering modified the caller's WithPairs slice")
	}
}

// TestJoinFromTexts: the session generates candidates itself when given
// raw texts, matching the standalone Matcher + legacy pipeline.
func TestJoinFromTexts(t *testing.T) {
	oracle := exampleOracle()
	j, err := crowdjoin.NewJoin(
		crowdjoin.WithTexts(exampleTexts),
		crowdjoin.WithMatcher(crowdjoin.Matcher{Threshold: 0.3}),
		crowdjoin.WithOracle(oracle),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	m := crowdjoin.Matcher{Threshold: 0.3}
	pairs, err := m.Candidates(exampleTexts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.LabelSequentialRun(len(exampleTexts), crowdjoin.ExpectedOrder(pairs), oracle, core.Rules{}, core.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Labels, res.Labels) {
		t.Errorf("texts-based Join labels %v, want %v", res.Labels, want.Labels)
	}
	clusters, err := res.Clusters()
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 3 {
		t.Errorf("clusters = %v, want 3 groups", clusters)
	}

	// Bipartite input.
	jb, err := crowdjoin.NewJoin(
		crowdjoin.WithTextsAcross(exampleTexts[:3], exampleTexts[3:]),
		crowdjoin.WithMatcher(crowdjoin.Matcher{Threshold: 0.2}),
		crowdjoin.WithOracle(oracle),
	)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := jb.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range resB.Order {
		lo, hi := p.A, p.B
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi < 3 || lo >= 3 {
			t.Errorf("bipartite candidate %v does not span the sources", p)
		}
	}
}

// TestJoinProgressEvents: the progress stream must account for every label
// and report rounds for the batch strategies.
func TestJoinProgressEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	numObjects, pairs, entity := randomJoinCase(rng)
	oracle := &crowdjoin.TruthOracle{Entity: entity}

	var crowdsourced, deduced, rounds int
	j, err := crowdjoin.NewJoin(
		crowdjoin.WithPairs(numObjects, pairs),
		crowdjoin.WithStrategy(crowdjoin.ParallelStrategy),
		crowdjoin.WithOracle(oracle),
		crowdjoin.WithProgress(func(e crowdjoin.Event) {
			switch e.Kind {
			case crowdjoin.EventPairCrowdsourced:
				crowdsourced++
			case crowdjoin.EventPairDeduced:
				deduced++
			case crowdjoin.EventRoundPublished:
				if e.Size <= 0 {
					t.Errorf("round %d published with size %d", e.Round, e.Size)
				}
				rounds++
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if crowdsourced != res.NumCrowdsourced {
		t.Errorf("crowdsourced events %d, result %d", crowdsourced, res.NumCrowdsourced)
	}
	if deduced != res.NumDeduced {
		t.Errorf("deduced events %d, result %d", deduced, res.NumDeduced)
	}
	if rounds != len(res.RoundSizes) {
		t.Errorf("round events %d, rounds %d", rounds, len(res.RoundSizes))
	}
}

// TestNewJoinValidation: configuration errors surface at NewJoin.
func TestNewJoinValidation(t *testing.T) {
	oracle := exampleOracle()
	cases := []struct {
		name string
		opts []crowdjoin.JoinOption
	}{
		{"no input", []crowdjoin.JoinOption{crowdjoin.WithOracle(oracle)}},
		{"two inputs", []crowdjoin.JoinOption{
			crowdjoin.WithTexts(exampleTexts), crowdjoin.WithPairs(3, nil), crowdjoin.WithOracle(oracle)}},
		{"sequential without crowd", []crowdjoin.JoinOption{crowdjoin.WithTexts(exampleTexts)}},
		{"platform without backend", []crowdjoin.JoinOption{
			crowdjoin.WithTexts(exampleTexts), crowdjoin.WithStrategy(crowdjoin.PlatformStrategy), crowdjoin.WithOracle(oracle)}},
		{"nil ordering", []crowdjoin.JoinOption{
			crowdjoin.WithTexts(exampleTexts), crowdjoin.WithOracle(oracle), crowdjoin.WithOrder(nil)}},
		{"nil journal", []crowdjoin.JoinOption{
			crowdjoin.WithTexts(exampleTexts), crowdjoin.WithOracle(oracle), crowdjoin.WithJournal(nil)}},
		{"negative budget", []crowdjoin.JoinOption{
			crowdjoin.WithTexts(exampleTexts), crowdjoin.WithStrategy(crowdjoin.BudgetStrategy(-1, 0.5)), crowdjoin.WithOracle(oracle)}},
	}
	for _, tc := range cases {
		if _, err := crowdjoin.NewJoin(tc.opts...); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
