package crowdjoin_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"crowdjoin"
)

// triageTestBands is consistent with randomJoinCase's likelihood model
// (matching pairs score in [0.5, 1], non-matching below 0.7): the accept
// band holds only true matches and the reject band only true non-matches,
// so machine answers agree with the truth oracle and labels must not move.
const (
	triageAccept = 0.72
	triageReject = 0.45
)

// TestRouterToggleOffByteIdentical pins the PR's off-switches: a session
// with the largest-first router selected explicitly (and no triage) must be
// byte-identical to one that never saw the new options, for every strategy
// and concurrency — the existing differential suites keep covering the
// default path unchanged.
func TestRouterToggleOffByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		numObjects, pairs, entity := randomJoinCase(rng)
		truth := &crowdjoin.TruthOracle{Entity: entity}
		for _, tc := range []struct {
			name string
			opts []crowdjoin.JoinOption
		}{
			{"sequential", []crowdjoin.JoinOption{crowdjoin.WithStrategy(crowdjoin.SequentialStrategy)}},
			{"parallel", []crowdjoin.JoinOption{crowdjoin.WithStrategy(crowdjoin.ParallelStrategy)}},
			{"parallel-sharded", []crowdjoin.JoinOption{
				crowdjoin.WithStrategy(crowdjoin.ParallelStrategy), crowdjoin.WithConcurrency(3)}},
		} {
			base := runJoin(t, append([]crowdjoin.JoinOption{
				crowdjoin.WithPairs(numObjects, pairs),
				crowdjoin.WithOracle(&lockedOracle{inner: truth}),
			}, tc.opts...)...)
			explicit := runJoin(t, append([]crowdjoin.JoinOption{
				crowdjoin.WithPairs(numObjects, pairs),
				crowdjoin.WithOracle(&lockedOracle{inner: truth}),
				crowdjoin.WithRouter(crowdjoin.LargestFirstRouter),
			}, tc.opts...)...)
			if !reflect.DeepEqual(base, explicit) {
				t.Fatalf("trial %d %s: WithRouter(LargestFirstRouter) is not byte-identical to the default", trial, tc.name)
			}
			if base.Triaged != nil || base.TriageAccepted != 0 || base.TriageRejected != 0 {
				t.Fatalf("trial %d %s: triage fields populated without WithTriage", trial, tc.name)
			}
		}
	}
}

// TestTriageSessionDifferential: with bands consistent with the truth, a
// triaged session must produce the same labels and clusters as the plain
// run, crowdsource only the uncertain band, attribute machine answers to
// Triaged (and EventPairTriaged), and never spend more crowd questions.
func TestTriageSessionDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	bands := crowdjoin.TriageBands{AcceptAbove: triageAccept, RejectBelow: triageReject}
	for trial := 0; trial < 8; trial++ {
		numObjects, pairs, entity := randomJoinCase(rng)
		truth := &crowdjoin.TruthOracle{Entity: entity}
		configs := []struct {
			name string
			opts func() []crowdjoin.JoinOption
		}{
			{"sequential", func() []crowdjoin.JoinOption {
				return []crowdjoin.JoinOption{crowdjoin.WithStrategy(crowdjoin.SequentialStrategy), crowdjoin.WithOracle(truth)}
			}},
			{"parallel", func() []crowdjoin.JoinOption {
				return []crowdjoin.JoinOption{crowdjoin.WithStrategy(crowdjoin.ParallelStrategy), crowdjoin.WithOracle(truth)}
			}},
			{"parallel-sharded", func() []crowdjoin.JoinOption {
				return []crowdjoin.JoinOption{
					crowdjoin.WithStrategy(crowdjoin.ParallelStrategy),
					crowdjoin.WithOracle(&lockedOracle{inner: truth}),
					crowdjoin.WithConcurrency(3),
				}
			}},
			{"platform", func() []crowdjoin.JoinOption {
				return []crowdjoin.JoinOption{
					crowdjoin.WithStrategy(crowdjoin.PlatformStrategy),
					crowdjoin.WithPlatform(crowdjoin.NewSimulatedCrowd(truth, crowdjoin.SelectFIFO, nil)),
				}
			}},
		}
		for _, cfg := range configs {
			base := runJoin(t, append(cfg.opts(), crowdjoin.WithPairs(numObjects, pairs))...)

			var mu sync.Mutex
			var triagedEvents, crowdEvents int
			res := runJoin(t, append(cfg.opts(),
				crowdjoin.WithPairs(numObjects, pairs),
				crowdjoin.WithTriage(triageAccept, triageReject),
				crowdjoin.WithProgress(func(e crowdjoin.Event) {
					mu.Lock()
					switch e.Kind {
					case crowdjoin.EventPairTriaged:
						triagedEvents++
					case crowdjoin.EventPairCrowdsourced:
						crowdEvents++
					}
					mu.Unlock()
				}),
			)...)

			if !reflect.DeepEqual(base.Labels, res.Labels) {
				t.Fatalf("trial %d %s: triage changed the labels", trial, cfg.name)
			}
			baseClusters, _ := base.Clusters()
			resClusters, _ := res.Clusters()
			if !reflect.DeepEqual(baseClusters, resClusters) {
				t.Fatalf("trial %d %s: triage changed the clusters", trial, cfg.name)
			}
			if res.NumCrowdsourced > base.NumCrowdsourced {
				t.Fatalf("trial %d %s: triage spent more crowd questions (%d > %d)",
					trial, cfg.name, res.NumCrowdsourced, base.NumCrowdsourced)
			}
			if res.Triaged == nil {
				t.Fatalf("trial %d %s: Triaged not populated", trial, cfg.name)
			}
			numTriaged, numCrowd := 0, 0
			for _, p := range res.Order {
				if res.Triaged[p.ID] {
					numTriaged++
					if res.Crowdsourced[p.ID] {
						t.Fatalf("trial %d %s: pair %d both triaged and crowdsourced", trial, cfg.name, p.ID)
					}
					if bands.Classify(p.Likelihood) == crowdjoin.Unlabeled {
						t.Fatalf("trial %d %s: uncertain pair %d (lik %v) triaged", trial, cfg.name, p.ID, p.Likelihood)
					}
				}
				if res.Crowdsourced[p.ID] {
					numCrowd++
					if bands.Classify(p.Likelihood) != crowdjoin.Unlabeled {
						t.Fatalf("trial %d %s: banded pair %d (lik %v) reached the crowd", trial, cfg.name, p.ID, p.Likelihood)
					}
				}
			}
			if got := res.TriageAccepted + res.TriageRejected; got != numTriaged {
				t.Fatalf("trial %d %s: TriageAccepted+TriageRejected = %d, %d pairs flagged", trial, cfg.name, got, numTriaged)
			}
			if numCrowd != res.NumCrowdsourced {
				t.Fatalf("trial %d %s: NumCrowdsourced %d but %d flags", trial, cfg.name, res.NumCrowdsourced, numCrowd)
			}
			mu.Lock()
			te, ce := triagedEvents, crowdEvents
			mu.Unlock()
			if te != numTriaged || ce != res.NumCrowdsourced {
				t.Fatalf("trial %d %s: events %d triaged / %d crowdsourced, result %d / %d",
					trial, cfg.name, te, ce, numTriaged, res.NumCrowdsourced)
			}
		}
	}
}

// TestTriageShardedMatchesUnsharded: with triage on, sharding must not
// change labels or clusters at any k. Under the sequential driver, with and
// without the one-to-one constraint, the crowd cost is pinned exactly too
// (every banded answer lands before the uncertain pairs in both runs); a
// residue pair the unsharded one-to-one run rules out by the constraint is
// triaged on the residue shard instead, so the free-label sum counts both.
// Under the parallel driver, machine-
// answered pairs occupy round slots and conflict with uncertain pairs that
// share endpoints, so round composition — and with it the deduced-vs-asked
// attribution of a handful of pairs — can shift slightly across k; there we
// pin labels, clusters, and total-answer conservation instead.
func TestTriageShardedMatchesUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 8; trial++ {
		numObjects, pairs, entity := randomJoinCase(rng)
		truth := &crowdjoin.TruthOracle{Entity: entity}
		for _, strat := range []crowdjoin.Strategy{crowdjoin.SequentialStrategy, crowdjoin.ParallelStrategy, crowdjoin.OneToOneStrategy} {
			base := runJoin(t,
				crowdjoin.WithPairs(numObjects, pairs),
				crowdjoin.WithStrategy(strat),
				crowdjoin.WithOracle(truth),
				crowdjoin.WithTriage(triageAccept, triageReject),
			)
			for _, k := range []int{2, 4} {
				sharded := runJoin(t,
					crowdjoin.WithPairs(numObjects, pairs),
					crowdjoin.WithStrategy(strat),
					crowdjoin.WithOracle(&lockedOracle{inner: truth}),
					crowdjoin.WithTriage(triageAccept, triageReject),
					crowdjoin.WithConcurrency(k),
				)
				if !reflect.DeepEqual(base.Labels, sharded.Labels) {
					t.Fatalf("trial %d %v k=%d: sharded triage changed the labels", trial, strat, k)
				}
				if strat != crowdjoin.ParallelStrategy {
					if !reflect.DeepEqual(base.Crowdsourced, sharded.Crowdsourced) ||
						base.NumCrowdsourced != sharded.NumCrowdsourced {
						t.Fatalf("trial %d %v k=%d: sharded triage changed the crowd cost", trial, strat, k)
					}
					baseFree := base.NumDeduced + base.NumConstraintDeduced + base.TriageAccepted + base.TriageRejected
					shardFree := sharded.NumDeduced + sharded.NumConstraintDeduced + sharded.TriageAccepted + sharded.TriageRejected
					if baseFree != shardFree {
						t.Fatalf("trial %d %v k=%d: free-label sum %d vs %d", trial, strat, k, baseFree, shardFree)
					}
				}
				total := sharded.NumCrowdsourced + sharded.NumDeduced + sharded.NumConstraintDeduced + sharded.TriageAccepted + sharded.TriageRejected
				baseTotal := base.NumCrowdsourced + base.NumDeduced + base.NumConstraintDeduced + base.TriageAccepted + base.TriageRejected
				if total != baseTotal || total != len(sharded.Order) {
					t.Fatalf("trial %d %v k=%d: answer accounting %d vs %d (want %d)",
						trial, strat, k, total, baseTotal, len(sharded.Order))
				}
				baseClusters, _ := base.Clusters()
				shardClusters, _ := sharded.Clusters()
				if !reflect.DeepEqual(baseClusters, shardClusters) {
					t.Fatalf("trial %d %v k=%d: clusters diverged", trial, strat, k)
				}
			}
		}
	}
}

// TestBalancedRouterMatchesLargestFirst: the balanced router reschedules
// crowd work but must not change what is asked or concluded — same labels,
// same crowdsourced pairs, same rounds, same clusters as the default
// largest-first scheduling, at every k.
func TestBalancedRouterMatchesLargestFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 8; trial++ {
		numObjects, pairs, entity := randomJoinCase(rng)
		oracle := crowdjoin.Oracle(&crowdjoin.TruthOracle{Entity: entity})
		if trial%3 == 2 {
			oracle = flakyOracle()
		}
		withTriage := trial%2 == 1
		for _, k := range []int{2, 4} {
			opts := func(r crowdjoin.Router) []crowdjoin.JoinOption {
				o := []crowdjoin.JoinOption{
					crowdjoin.WithPairs(numObjects, pairs),
					crowdjoin.WithStrategy(crowdjoin.ParallelStrategy),
					crowdjoin.WithOracle(&lockedOracle{inner: oracle}),
					crowdjoin.WithConcurrency(k),
					crowdjoin.WithRouter(r),
				}
				if withTriage {
					o = append(o, crowdjoin.WithTriage(triageAccept, triageReject))
				}
				return o
			}
			largest := runJoin(t, opts(crowdjoin.LargestFirstRouter)...)
			balanced := runJoin(t, opts(crowdjoin.BalancedRouter)...)
			if !reflect.DeepEqual(largest.Labels, balanced.Labels) ||
				!reflect.DeepEqual(largest.Crowdsourced, balanced.Crowdsourced) ||
				largest.NumCrowdsourced != balanced.NumCrowdsourced ||
				largest.NumDeduced != balanced.NumDeduced ||
				largest.Conflicts != balanced.Conflicts ||
				largest.TriageAccepted != balanced.TriageAccepted ||
				largest.TriageRejected != balanced.TriageRejected ||
				!reflect.DeepEqual(largest.RoundSizes, balanced.RoundSizes) {
				t.Fatalf("trial %d k=%d triage=%v: balanced router diverged from largest-first", trial, k, withTriage)
			}
			lc, _ := largest.Clusters()
			bc, _ := balanced.Clusters()
			if !reflect.DeepEqual(lc, bc) {
				t.Fatalf("trial %d k=%d: clusters diverged", trial, k)
			}
		}
	}
}

// TestTriageJournalExcludesMachineAnswers: machine answers are never
// journaled — they are deterministic from the bands — and a resumed session
// replays every crowd answer while re-deriving the triage for free. Each
// row reaches one crowd surface's wrapper: ParallelStrategy the platform
// wrapper through the round adapter, SequentialStrategy the oracle
// wrapper, and PlatformStrategy the platform wrapper directly, in plain
// mode and with instant decisions. crowd builds a row's options around
// the oracle that answers its questions.
func TestTriageJournalExcludesMachineAnswers(t *testing.T) {
	platform := func(instant bool) func(crowdjoin.Oracle) []crowdjoin.JoinOption {
		return func(o crowdjoin.Oracle) []crowdjoin.JoinOption {
			return []crowdjoin.JoinOption{
				crowdjoin.WithStrategy(crowdjoin.PlatformStrategy),
				crowdjoin.WithPlatform(crowdjoin.NewSimulatedCrowd(o, crowdjoin.SelectFIFO, nil)),
				crowdjoin.WithInstantDecisions(instant),
			}
		}
	}
	rows := []struct {
		name  string
		crowd func(crowdjoin.Oracle) []crowdjoin.JoinOption
	}{
		{"parallel", func(o crowdjoin.Oracle) []crowdjoin.JoinOption {
			return []crowdjoin.JoinOption{crowdjoin.WithStrategy(crowdjoin.ParallelStrategy), crowdjoin.WithOracle(o)}
		}},
		{"sequential", func(o crowdjoin.Oracle) []crowdjoin.JoinOption {
			return []crowdjoin.JoinOption{crowdjoin.WithStrategy(crowdjoin.SequentialStrategy), crowdjoin.WithOracle(o)}
		}},
		{"platform", platform(false)},
		{"platform-instant", platform(true)},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			testTriageJournalExcludesMachineAnswers(t, row.crowd)
		})
	}
}

func testTriageJournalExcludesMachineAnswers(t *testing.T, crowd func(crowdjoin.Oracle) []crowdjoin.JoinOption) {
	rng := rand.New(rand.NewSource(67))
	bands := crowdjoin.TriageBands{AcceptAbove: triageAccept, RejectBelow: triageReject}
	for trial := 0; trial < 6; trial++ {
		numObjects, pairs, entity := randomJoinCase(rng)
		truth := &crowdjoin.TruthOracle{Entity: entity}
		jrn := &bytes.Buffer{}
		first := runJoin(t, append(crowd(truth),
			crowdjoin.WithPairs(numObjects, pairs),
			crowdjoin.WithTriage(triageAccept, triageReject),
			crowdjoin.WithJournal(jrn),
		)...)
		if first.TriageAccepted+first.TriageRejected == 0 {
			continue
		}

		// Parse the journaled answers: every one must be an uncertain-band
		// pair (machine answers stay out of the durable log).
		likelihood := map[[2]int32]float64{}
		for _, p := range pairs {
			a, b := p.A, p.B
			if a > b {
				a, b = b, a
			}
			likelihood[[2]int32{a, b}] = p.Likelihood
		}
		journaled := 0
		for _, line := range strings.Split(jrn.String(), "\n") {
			f := strings.Fields(line)
			if len(f) != 3 || (f[0] != "m" && f[0] != "n") {
				continue
			}
			a, _ := strconv.Atoi(f[1])
			b, _ := strconv.Atoi(f[2])
			if a > b {
				a, b = b, a
			}
			journaled++
			lik, ok := likelihood[[2]int32{int32(a), int32(b)}]
			if !ok {
				t.Fatalf("trial %d: journal holds unknown pair (%d,%d)", trial, a, b)
			}
			if bands.Classify(lik) != crowdjoin.Unlabeled {
				t.Fatalf("trial %d: machine-banded pair (%d,%d) at likelihood %v was journaled", trial, a, b, lik)
			}
		}
		if journaled != first.NumCrowdsourced {
			t.Fatalf("trial %d: journal holds %d answers, run crowdsourced %d", trial, journaled, first.NumCrowdsourced)
		}

		// Resume: zero new crowd questions, full replay, same outcome.
		counter := &lockedOracle{inner: truth}
		resumed := runJoin(t, append(crowd(counter),
			crowdjoin.WithPairs(numObjects, pairs),
			crowdjoin.WithTriage(triageAccept, triageReject),
			crowdjoin.WithJournal(jrn),
		)...)
		if counter.asked != 0 {
			t.Fatalf("trial %d: resume re-crowdsourced %d pairs", trial, counter.asked)
		}
		if resumed.Replayed != first.NumCrowdsourced {
			t.Fatalf("trial %d: resume replayed %d of %d answers", trial, resumed.Replayed, first.NumCrowdsourced)
		}
		if !reflect.DeepEqual(first.Labels, resumed.Labels) ||
			first.TriageAccepted != resumed.TriageAccepted ||
			first.TriageRejected != resumed.TriageRejected {
			t.Fatalf("trial %d: resumed triage run diverged", trial)
		}
	}
}

// TestTriageOptionValidation: the new options reject nonsensical or
// incompatible configurations at NewJoin.
func TestTriageOptionValidation(t *testing.T) {
	truth := crowdjoin.OracleFunc(func(crowdjoin.Pair) crowdjoin.Label { return crowdjoin.NonMatching })
	pairs := []crowdjoin.Pair{{ID: 0, A: 0, B: 1, Likelihood: 0.5}}
	texts := []string{"a b c", "a b d", "x y z"}
	base := func(extra ...crowdjoin.JoinOption) []crowdjoin.JoinOption {
		return append([]crowdjoin.JoinOption{
			crowdjoin.WithPairs(2, pairs),
			crowdjoin.WithOracle(truth),
		}, extra...)
	}
	bad := [][]crowdjoin.JoinOption{
		base(crowdjoin.WithTriage(0, 0)),
		base(crowdjoin.WithTriage(0.3, 0.5)),
		base(crowdjoin.WithTriage(1.5, 0)),
		base(crowdjoin.WithTriage(0.8, -0.1)),
		base(crowdjoin.WithTriage(0.8, 0.2), crowdjoin.WithStrategy(crowdjoin.BudgetStrategy(3, 0.5))),
		base(crowdjoin.WithRouter(crowdjoin.Router(9))),
		base(crowdjoin.WithRouter(crowdjoin.BalancedRouter)), // needs parallel + k > 1
		base(crowdjoin.WithRouter(crowdjoin.BalancedRouter), crowdjoin.WithStrategy(crowdjoin.ParallelStrategy)),
		base(crowdjoin.WithRouter(crowdjoin.BalancedRouter), crowdjoin.WithStrategy(crowdjoin.SequentialStrategy), crowdjoin.WithConcurrency(2)),
		base(crowdjoin.WithCascade()),
		base(crowdjoin.WithCascade(1.2)),
		base(crowdjoin.WithCascade(0.5, 0.5)),
		base(crowdjoin.WithCascade(0.3, 0.5)),
		base(crowdjoin.WithCascade(0.5)), // cascade needs texts, not precomputed pairs
		{crowdjoin.WithTexts(texts), crowdjoin.WithMatcher(crowdjoin.Matcher{Threshold: 0.3}),
			crowdjoin.WithOracle(truth), crowdjoin.WithCascade(0.5),
			crowdjoin.WithStrategy(crowdjoin.BudgetStrategy(3, 0.5))},
	}
	for i, opts := range bad {
		if _, err := crowdjoin.NewJoin(opts...); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}

	// Valid configurations still construct.
	good := [][]crowdjoin.JoinOption{
		base(crowdjoin.WithTriage(0.8, 0)),
		base(crowdjoin.WithTriage(0.8, 0.2)),
		base(crowdjoin.WithRouter(crowdjoin.LargestFirstRouter)),
		base(crowdjoin.WithRouter(crowdjoin.BalancedRouter), crowdjoin.WithStrategy(crowdjoin.ParallelStrategy), crowdjoin.WithConcurrency(2)),
		{crowdjoin.WithTexts(texts), crowdjoin.WithMatcher(crowdjoin.Matcher{Threshold: 0.3}),
			crowdjoin.WithOracle(truth), crowdjoin.WithCascade(0.5)},
	}
	for i, opts := range good {
		if _, err := crowdjoin.NewJoin(opts...); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}

	// Append is incompatible with the cascade: the descent assumes a fixed
	// input corpus.
	j, err := crowdjoin.NewJoin(
		crowdjoin.WithTexts(texts),
		crowdjoin.WithMatcher(crowdjoin.Matcher{Threshold: 0.3}),
		crowdjoin.WithOracle(truth),
		crowdjoin.WithCascade(0.5),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append("a b e"); err == nil {
		t.Error("Append on a cascade session accepted")
	}
}

// TestCascadeMatchesFlatJoin: the multi-threshold cascade must converge to
// the same clusters as the flat single-threshold join over WithTexts, while
// never asking more crowd questions in its final accounting than the pairs
// it actually generated.
func TestCascadeMatchesFlatJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	texts, entity := randomTextCorpus(rng, 60)
	truth := &crowdjoin.TruthOracle{Entity: entity}
	matcher := crowdjoin.Matcher{Threshold: 0.3}

	flat := runJoin(t,
		crowdjoin.WithTexts(texts),
		crowdjoin.WithMatcher(matcher),
		crowdjoin.WithOracle(truth),
		crowdjoin.WithStrategy(crowdjoin.ParallelStrategy),
	)
	cascade := runJoin(t,
		crowdjoin.WithTexts(texts),
		crowdjoin.WithMatcher(matcher),
		crowdjoin.WithOracle(truth),
		crowdjoin.WithStrategy(crowdjoin.ParallelStrategy),
		crowdjoin.WithCascade(0.6, 0.45),
	)
	flatClusters, err := flat.Clusters()
	if err != nil {
		t.Fatal(err)
	}
	cascadeClusters, err := cascade.Clusters()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flatClusters, cascadeClusters) {
		t.Fatalf("cascade clusters diverged from the flat join:\nflat    %v\ncascade %v", flatClusters, cascadeClusters)
	}
	if len(cascade.Order) > len(flat.Order) {
		t.Fatalf("cascade generated %d pairs, flat join %d", len(cascade.Order), len(flat.Order))
	}
}

// randomTextCorpus builds texts whose token overlap tracks entity identity:
// records of one entity share most tokens, records of different entities
// share few, so the 0.3-threshold candidate graph is connected enough to
// exercise deduction and the cascade's settled-cluster filter.
func randomTextCorpus(rng *rand.Rand, n int) (texts []string, entity []int32) {
	e := int32(0)
	for len(texts) < n {
		size := 2 + rng.Intn(3)
		stem := []string{
			"brand" + strconv.Itoa(int(e)),
			"model" + strconv.Itoa(int(e)),
			"line" + strconv.Itoa(int(e)/3),
		}
		for v := 0; v < size && len(texts) < n; v++ {
			words := append([]string{}, stem...)
			words = append(words, "variant"+strconv.Itoa(v))
			texts = append(texts, strings.Join(words, " "))
			entity = append(entity, e)
		}
		e++
	}
	return texts, entity
}
