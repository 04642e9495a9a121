package crowdjoin_test

// One benchmark per table and figure of the paper's evaluation, at full
// dataset scale, plus ablation benches for the design choices DESIGN.md
// calls out. Each bench reports the experiment's headline quantities via
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates the whole
// evaluation; `go run ./cmd/experiments` prints the full rows/series.

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"crowdjoin"
	"crowdjoin/internal/candgen"
	"crowdjoin/internal/clustergraph"
	"crowdjoin/internal/core"
	"crowdjoin/internal/crowd"
	"crowdjoin/internal/dataset"
	"crowdjoin/internal/experiments"
)

var (
	envOnce sync.Once
	fullEnv *experiments.Env
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() {
		e, err := experiments.NewEnv(experiments.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		fullEnv = e
	})
	return fullEnv
}

func BenchmarkFig10ClusterSizes(b *testing.B) {
	e := benchEnv(b)
	var r *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		r = e.Fig10()
	}
	b.ReportMetric(float64(experiments.MaxClusterSize(r.Paper)), "paper-max-cluster")
	b.ReportMetric(float64(experiments.MaxClusterSize(r.Product)), "product-max-cluster")
}

func BenchmarkFig11Transitivity(b *testing.B) {
	e := benchEnv(b)
	var r *experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = e.Fig11(); err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range r.Paper {
		if row.Threshold == 0.3 {
			b.ReportMetric(100*row.Saving(), "paper-saving%@0.3")
		}
	}
	for _, row := range r.Product {
		if row.Threshold == 0.3 {
			b.ReportMetric(100*row.Saving(), "product-saving%@0.3")
		}
	}
}

func BenchmarkFig12LabelingOrders(b *testing.B) {
	e := benchEnv(b)
	var r *experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = e.Fig12(); err != nil {
			b.Fatal(err)
		}
	}
	last := r.Paper[len(r.Paper)-1] // lowest threshold
	b.ReportMetric(float64(last.Worst)/float64(last.Optimal), "paper-worst/optimal")
	b.ReportMetric(float64(last.Expected)/float64(last.Optimal), "paper-expected/optimal")
}

func BenchmarkFig13ParallelRounds(b *testing.B) {
	e := benchEnv(b)
	var r *experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = e.Fig13(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(r.Paper.RoundSizes)), "paper-iterations")
	b.ReportMetric(float64(r.Paper.NonParallelIterations), "paper-nonparallel-iterations")
}

func BenchmarkFig14ParallelRoundsSparser(b *testing.B) {
	e := benchEnv(b)
	var r *experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = e.Fig14(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(r.Paper.RoundSizes)), "paper-iterations")
}

func BenchmarkFig15Availability(b *testing.B) {
	e := benchEnv(b)
	var r *experiments.Fig15Result
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = e.Fig15(); err != nil {
			b.Fatal(err)
		}
	}
	for _, tr := range r.Paper {
		switch tr.Variant {
		case experiments.VariantParallel:
			b.ReportMetric(float64(tr.AvailabilityMass()), "paper-mass-parallel")
		case experiments.VariantInstant:
			b.ReportMetric(float64(tr.AvailabilityMass()), "paper-mass-id")
		case experiments.VariantInstantNF:
			b.ReportMetric(float64(tr.AvailabilityMass()), "paper-mass-id-nf")
		}
	}
}

func BenchmarkTable1CompletionTime(b *testing.B) {
	e := benchEnv(b)
	var r *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = e.Table1(); err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range r.Rows {
		b.ReportMetric(row.NonParallelHours/row.ParallelIDHours, row.Dataset+"-speedup")
	}
}

func BenchmarkTable2QualityAndCost(b *testing.B) {
	e := benchEnv(b)
	var r *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = e.Table2(); err != nil {
			b.Fatal(err)
		}
	}
	byKey := map[string]experiments.Table2Row{}
	for _, row := range r.Rows {
		byKey[row.Dataset+"/"+row.Method] = row
	}
	b.ReportMetric(float64(byKey["Paper/Non-Transitive"].HITs)/float64(byKey["Paper/Transitive"].HITs),
		"paper-hit-reduction")
	b.ReportMetric(100*(byKey["Paper/Non-Transitive"].Quality.F1-byKey["Paper/Transitive"].Quality.F1),
		"paper-f1-loss-points")
}

// --- Ablations ---------------------------------------------------------

// BenchmarkAblationBatchSize sweeps pairs-per-HIT for the Table 1 setup,
// probing the paper's batching strategy (Section 6.4).
func BenchmarkAblationBatchSize(b *testing.B) {
	e := benchEnv(b)
	pt, err := core.SinglePartition(e.Paper.Dataset.Len(), core.ExpectedOrder(e.Paper.Candidates(0.3)))
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{1, 5, 10, 20, 50} {
		b.Run(benchName("batch", batch), func(b *testing.B) {
			var hours float64
			var hits int
			for i := 0; i < b.N; i++ {
				cfg := crowd.DefaultConfig()
				cfg.BatchSize = batch
				pf, err := crowd.NewPlatform(e.Paper.Truth.Matches, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.LabelPartitionedOnPlatformRun(pt, pf, true, core.RunOpts{}); err != nil {
					b.Fatal(err)
				}
				hours, hits = pf.Now(), pf.HITs()
			}
			b.ReportMetric(hours, "hours")
			b.ReportMetric(float64(hits), "hits")
		})
	}
}

// BenchmarkAblationWorkers sweeps the worker-pool size, probing the
// parallelism headroom behind Table 1's speedup.
func BenchmarkAblationWorkers(b *testing.B) {
	e := benchEnv(b)
	pt, err := core.SinglePartition(e.Paper.Dataset.Len(), core.ExpectedOrder(e.Paper.Candidates(0.3)))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{4, 8, 16, 32, 64} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			var hours float64
			for i := 0; i < b.N; i++ {
				cfg := crowd.DefaultConfig()
				cfg.Workers = workers
				pf, err := crowd.NewPlatform(e.Paper.Truth.Matches, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.LabelPartitionedOnPlatformRun(pt, pf, true, core.RunOpts{}); err != nil {
					b.Fatal(err)
				}
				hours = pf.Now()
			}
			b.ReportMetric(hours, "hours")
		})
	}
}

// BenchmarkAblationErrorRate sweeps worker error rates, probing the
// savings-vs-quality trade-off behind Table 2.
func BenchmarkAblationErrorRate(b *testing.B) {
	e := benchEnv(b)
	pt, err := core.SinglePartition(e.Paper.Dataset.Len(), core.ExpectedOrder(e.Paper.Candidates(0.3)))
	if err != nil {
		b.Fatal(err)
	}
	for _, rate := range []float64{0, 0.05, 0.1, 0.2} {
		b.Run(benchName("err%", int(rate*100)), func(b *testing.B) {
			var conflicts int
			for i := 0; i < b.N; i++ {
				cfg := crowd.DefaultConfig()
				cfg.Model = crowd.UniformErrorModel{Rate: rate}
				pf, err := crowd.NewPlatform(e.Paper.Truth.Matches, cfg)
				if err != nil {
					b.Fatal(err)
				}
				run, err := core.LabelPartitionedOnPlatformRun(pt, pf, true, core.RunOpts{})
				if err != nil {
					b.Fatal(err)
				}
				conflicts = run.Conflicts
			}
			b.ReportMetric(float64(conflicts), "conflicts")
		})
	}
}

// BenchmarkAblationDeduction compares the ClusterGraph against the naive
// path-search deduction of Section 3.2 on the same query stream.
func BenchmarkAblationDeduction(b *testing.B) {
	const n = 400
	rng := rand.New(rand.NewSource(9))
	entity := make([]int32, n)
	for i := range entity {
		entity[i] = int32(rng.Intn(n / 8))
	}
	var labeled []clustergraph.LabeledPair
	for i := 0; i < 3*n; i++ {
		a, c := int32(rng.Intn(n)), int32(rng.Intn(n))
		if a == c {
			continue
		}
		labeled = append(labeled, clustergraph.LabeledPair{A: a, B: c, Matching: entity[a] == entity[c]})
	}
	queries := make([][2]int32, 256)
	for i := range queries {
		queries[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	b.Run("clustergraph", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := clustergraph.New(n)
			for _, lp := range labeled {
				_ = g.Insert(lp.A, lp.B, lp.Matching)
			}
			for _, q := range queries {
				_ = g.Deduce(q[0], q[1])
			}
		}
	})
	b.Run("pathsearch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				_ = clustergraph.BruteForceDeduce(n, labeled, q[0], q[1])
			}
		}
	})
}

// BenchmarkAblationBlocking compares indexed candidate generation
// (Candidates) against the exhaustive scorer. The indexed side is the
// positional prefix join, the only engine, so this measures the blocking
// and prefix-filter wins together; they can no longer be measured apart.
func BenchmarkAblationBlocking(b *testing.B) {
	cfg := dataset.DefaultAbtBuyConfig()
	cfg.AbtRecords, cfg.BuyRecords = 400, 420
	d := dataset.GenerateAbtBuy(cfg)
	s := candgen.NewScorer(d, candgen.Unweighted)
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := candgen.Candidates(d, s, 0.3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := candgen.ExhaustiveCandidates(d, s, 0.3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Candidate-generation benchmarks (tracked in BENCH_core.json) -------
//
// BenchmarkCandidates pins Candidates' size-ordered positional join on the
// Paper-scale dataset with an unweighted scorer; *PositionalWeighted* pins
// the same engine with an IDF-weighted scorer.

const benchCandThreshold = 0.3

func BenchmarkCandidates(b *testing.B) {
	e := benchEnv(b)
	d := e.Paper.Dataset
	s := candgen.NewScorer(d, candgen.Unweighted)
	var n int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs, err := candgen.Candidates(d, s, benchCandThreshold)
		if err != nil {
			b.Fatal(err)
		}
		n = len(pairs)
	}
	b.ReportMetric(float64(n), "pairs")
}

func BenchmarkCandidatesPositionalWeighted(b *testing.B) {
	e := benchEnv(b)
	d := e.Paper.Dataset
	s := candgen.NewScorer(d, candgen.IDFWeighted)
	var n int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs, err := candgen.Candidates(d, s, benchCandThreshold)
		if err != nil {
			b.Fatal(err)
		}
		n = len(pairs)
	}
	b.ReportMetric(float64(n), "pairs")
}

// --- Core micro-benchmarks ---------------------------------------------

func BenchmarkSequentialLabeling(b *testing.B) {
	e := benchEnv(b)
	pairs := e.Paper.Candidates(0.3)
	order := core.ExpectedOrder(pairs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.LabelSequentialRun(e.Paper.Dataset.Len(), order, e.Paper.Truth, core.Rules{}, core.RunOpts{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(pairs)), "pairs")
}

// BenchmarkParallelLabeling times what a k=1 ParallelStrategy Run labels
// on Paper@0.3: the one-shard partition, the round adapter and the round
// driver.
func BenchmarkParallelLabeling(b *testing.B) {
	e := benchEnv(b)
	pairs := e.Paper.Candidates(0.3)
	order := core.ExpectedOrder(pairs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt, err := core.SinglePartition(e.Paper.Dataset.Len(), order)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := labelRounds(pt, core.Batched(e.Paper.Truth), 1, false); err != nil {
			b.Fatal(err)
		}
	}
}

// latencyBatchOracle answers from ground truth after a delay proportional
// to the batch — a throughput-limited crowd (each shard's questions are
// answered at a fixed rate; shards overlap their waiting). Safe for
// concurrent use.
type latencyBatchOracle struct {
	truth   *core.TruthOracle
	perPair time.Duration
}

func (o latencyBatchOracle) LabelBatch(ps []core.Pair) []core.Label {
	time.Sleep(time.Duration(len(ps)) * o.perPair)
	out := make([]core.Label, len(ps))
	for i, p := range ps {
		out[i] = o.truth.Label(p)
	}
	return out
}

// BenchmarkShardedParallelLabeling measures the component-sharded parallel
// labeler against a simulated-latency crowd on the Paper dataset at
// threshold 0.4, where the candidate graph is genuinely multi-component
// (137 components, largest ~49% of the pairs — at 0.3 one giant component
// holds 94% and sharding has nothing to parallelize). k=1 is the unsharded
// WithConcurrency(1) path, one shard with one round in flight; k=4 keeps
// up to four components' rounds in flight. Labels are identical; the
// wall-clock difference is the cross-component round barrier the sharding
// removes.
func BenchmarkShardedParallelLabeling(b *testing.B) {
	e := benchEnv(b)
	pairs := e.Paper.Candidates(0.4)
	order := core.ExpectedOrder(pairs)
	// Per-pair latency must dominate the OS overhead of a sleep call
	// (~0.4ms on this class of box), or the measurement degenerates into
	// counting sleep calls: sharded runs make one crowd round-trip per
	// component per round, so tiny per-call costs would swamp the modeled
	// crowd time.
	oracle := latencyBatchOracle{truth: e.Paper.Truth, perPair: 500 * time.Microsecond}
	pt, err := core.BuildPartition(e.Paper.Dataset.Len(), order, core.TriageBands{})
	if err != nil {
		b.Fatal(err)
	}
	single, err := core.SinglePartition(e.Paper.Dataset.Len(), order)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 4} {
		b.Run(benchName("k", k), func(b *testing.B) {
			b.ReportAllocs()
			run := pt
			if k == 1 {
				run = single
			}
			var crowdsourced int
			for i := 0; i < b.N; i++ {
				r, err := labelRounds(run, oracle, k, false)
				if err != nil {
					b.Fatal(err)
				}
				crowdsourced = r.NumCrowdsourced
			}
			b.ReportMetric(float64(len(pt.Shards)), "components")
			b.ReportMetric(float64(crowdsourced), "crowdsourced")
		})
	}
}

// BenchmarkGiantComponent measures the balance-aware question router on the
// workload that motivates it: Paper@0.3, where one connected component holds
// ~94% of the candidate pairs, so round-granular scheduling (the round
// adapter's largest-first mode, whole rounds with up to k in flight) keeps
// one crowd call busy with the giant component's rounds and k buys almost
// nothing over k=1. The routed run keeps the identical per-component round
// structure but splits every published round into single questions spread
// across k modeled crowd workers (stride-weighted by pairs the crowd has
// not answered), so the giant component's big rounds actually use the
// whole crowd. Labels and crowd cost are
// identical across all three variants (pinned by the root-package router
// differential tests); only wall-clock moves. Tracked in BENCH_core.json
// and gated by benchjson --compare.
func BenchmarkGiantComponent(b *testing.B) {
	e := benchEnv(b)
	pairs := e.Paper.Candidates(0.3)
	order := core.ExpectedOrder(pairs)
	numObjects := e.Paper.Dataset.Len()
	// Higher per-question latency than BenchmarkShardedParallelLabeling: the
	// router answers via single-question batches, so each question pays its
	// own sleep call, and at 500µs the OS timer overhead (~0.5ms/call on
	// this class of box) would rival the modeled crowd time itself.
	oracle := latencyBatchOracle{truth: e.Paper.Truth, perPair: 2 * time.Millisecond}
	pt, err := core.BuildPartition(numObjects, order, core.TriageBands{})
	if err != nil {
		b.Fatal(err)
	}
	giant := 0
	for i := range pt.Shards {
		if n := len(pt.Shards[i].Order); n > giant {
			giant = n
		}
	}
	single, err := core.SinglePartition(numObjects, order)
	if err != nil {
		b.Fatal(err)
	}
	const k = 4
	variants := []struct {
		name string
		run  func() (*core.TraceResult, error)
	}{
		{"k=1", func() (*core.TraceResult, error) { return labelRounds(single, oracle, 1, false) }},
		{"k=4-largest-first", func() (*core.TraceResult, error) { return labelRounds(pt, oracle, k, false) }},
		{"k=4-balanced", func() (*core.TraceResult, error) { return labelRounds(pt, oracle, k, true) }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var crowdsourced int
			for i := 0; i < b.N; i++ {
				r, err := v.run()
				if err != nil {
					b.Fatal(err)
				}
				crowdsourced = r.NumCrowdsourced
			}
			b.ReportMetric(float64(crowdsourced), "crowdsourced")
			b.ReportMetric(100*float64(giant)/float64(len(order)), "giant-pair-%")
		})
	}
}

func BenchmarkCrowdsourceablePairs(b *testing.B) {
	e := benchEnv(b)
	pairs := e.Paper.Candidates(0.3)
	order := core.ExpectedOrder(pairs)
	labels := make([]core.Label, len(order))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CrowdsourceablePairs(e.Paper.Dataset.Len(), order, labels); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlatformInstant measures the platform driver without sleeps:
// Paper@0.3 in expected order on a one-shard partition, answered by a fresh
// AMT simulator with Table 2's crowd per iteration, with instant decisions
// on — the paper-amt workload's driver. The simulator's clock is virtual,
// so ns/op is the driver's and the simulator's machine time. questions is
// the crowd cost, which the driver's scan must never change.
func BenchmarkPlatformInstant(b *testing.B) {
	e := benchEnv(b)
	pairs := e.Paper.Candidates(0.3)
	order := core.ExpectedOrder(pairs)
	pt, err := core.SinglePartition(e.Paper.Dataset.Len(), order)
	if err != nil {
		b.Fatal(err)
	}
	cfg := e.Cfg.Crowd
	cfg.Model = e.Cfg.NoisyModel
	b.ReportAllocs()
	b.ResetTimer()
	var questions int
	for i := 0; i < b.N; i++ {
		pf, err := crowd.NewPlatform(e.Paper.Truth.Matches, cfg)
		if err != nil {
			b.Fatal(err)
		}
		r, err := core.LabelPartitionedOnPlatformRun(pt, pf, true, core.RunOpts{})
		if err != nil {
			b.Fatal(err)
		}
		questions = r.NumCrowdsourced
	}
	b.ReportMetric(float64(questions), "questions")
}

// BenchmarkRoundDriverScale times the round driver beyond the paper's
// size, where its rescans dominate a Run: a Join.Run over pairs built
// before the timer, on the Paper corpus cmd/datagen writes for the row's
// record count (seed 1, largest cluster min(102, records/4)) joined by
// Matcher{Threshold: 0.3}, at k=1 with a perfect crowd and no sleeps.
// instant runs PlatformStrategy with instant decisions on a FIFO simulated
// crowd, parallel runs ParallelStrategy on a perfect batch oracle.
// questions is the crowd cost and rounds the publish events (instant) or
// parallel rounds, both fixed by the order and the crowd.
func BenchmarkRoundDriverScale(b *testing.B) {
	for _, row := range []struct {
		name    string
		records int
		instant bool
	}{
		{"instant/records=2000", 2000, true},
		{"parallel/records=4000", 4000, false},
	} {
		b.Run(row.name, func(b *testing.B) {
			cfg := dataset.DefaultCoraConfig()
			cfg.Records = row.records
			cfg.LargestCluster = min(cfg.LargestCluster, row.records/4)
			d := dataset.GenerateCora(cfg)
			texts := make([]string, d.Len())
			for i := range texts {
				texts[i] = d.Records[i].Text()
			}
			pairs, err := crowdjoin.Matcher{Threshold: 0.3}.Candidates(texts)
			if err != nil {
				b.Fatal(err)
			}
			truth := &core.TruthOracle{Entity: d.Entities()}
			ctx := context.Background()
			var questions, rounds int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := []crowdjoin.JoinOption{crowdjoin.WithPairs(d.Len(), pairs), crowdjoin.WithConcurrency(1)}
				if row.instant {
					opts = append(opts, crowdjoin.WithStrategy(crowdjoin.PlatformStrategy),
						crowdjoin.WithPlatform(crowdjoin.NewSimulatedCrowd(truth, crowdjoin.SelectFIFO, nil)),
						crowdjoin.WithInstantDecisions(true))
				} else {
					opts = append(opts, crowdjoin.WithStrategy(crowdjoin.ParallelStrategy),
						crowdjoin.WithBatchOracle(core.Batched(truth)))
				}
				j, err := crowdjoin.NewJoin(opts...)
				if err != nil {
					b.Fatal(err)
				}
				res, err := j.Run(ctx)
				if err != nil {
					b.Fatal(err)
				}
				questions, rounds = res.NumCrowdsourced, len(res.RoundSizes)
				if row.instant {
					rounds = len(res.PublishSizes)
				}
			}
			b.ReportMetric(float64(questions), "questions")
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkCandidatesFromTexts times candidate generation from tokenized
// records: a fresh Scorer each iteration, so tokenization (NewScorer) and
// the rare-first rank arena (built on the first prefix join) are timed
// with the join itself. BenchmarkCandidates reuses one Scorer and times
// the join alone.
func BenchmarkCandidatesFromTexts(b *testing.B) {
	e := benchEnv(b)
	d := e.Paper.Dataset
	var n int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := candgen.NewScorer(d, candgen.Unweighted)
		pairs, err := candgen.Candidates(d, s, benchCandThreshold)
		if err != nil {
			b.Fatal(err)
		}
		n = len(pairs)
	}
	b.ReportMetric(float64(n), "pairs")
}

// BenchmarkJoinEndToEnd times one join from texts to clusters: Paper@0.3's
// record texts through Join.Run (parallel strategy, a perfect batch crowd,
// k=1, no sleep), then Clusters. It is the op perfbench's paper-batch
// workload times, on the experiments' Paper corpus.
func BenchmarkJoinEndToEnd(b *testing.B) {
	e := benchEnv(b)
	d := e.Paper.Dataset
	texts := make([]string, d.Len())
	for i := range texts {
		texts[i] = d.Records[i].Text()
	}
	crowd := core.Batched(e.Paper.Truth)
	ctx := context.Background()
	var pairs, questions int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := crowdjoin.NewJoin(crowdjoin.WithTexts(texts),
			crowdjoin.WithMatcher(crowdjoin.Matcher{Threshold: benchCandThreshold}),
			crowdjoin.WithStrategy(crowdjoin.ParallelStrategy), crowdjoin.WithBatchOracle(crowd),
			crowdjoin.WithConcurrency(1))
		if err != nil {
			b.Fatal(err)
		}
		res, err := j.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.Clusters(); err != nil {
			b.Fatal(err)
		}
		pairs, questions = len(res.Order), res.NumCrowdsourced
	}
	b.ReportMetric(float64(pairs), "pairs")
	b.ReportMetric(float64(questions), "questions")
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return prefix + "=" + string(buf[i:])
}

// --- Deduction-core and world-enumeration micro-benchmarks --------------
//
// These pin the perf contract of the allocation-free ClusterGraph core:
// Deduce/Insert at 0 allocs/op in steady state, snapshot/rollback cheap
// enough to run per world, and the expected-cost engine's DFS enumeration.
// scripts/bench.sh captures them (with the labeling benchmarks above) in
// BENCH_core.json so future PRs can track the trajectory.

// worldPairs builds a k-pair candidate set over a small object universe,
// the regime Section 4.2's exact expected-cost engine targets.
func worldPairs(k int) (int, []core.Pair) {
	rng := rand.New(rand.NewSource(7))
	n := 8
	pairs := make([]core.Pair, 0, k)
	for i := 0; i < k; i++ {
		a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
		for a == b {
			b = int32(rng.Intn(n))
		}
		if a > b {
			a, b = b, a
		}
		pairs = append(pairs, core.Pair{ID: i, A: a, B: b, Likelihood: 0.2 + 0.6*rng.Float64()})
	}
	return n, pairs
}

func BenchmarkWorldEnumeration(b *testing.B) {
	for _, k := range []int{12, 16} {
		n, pairs := worldPairs(k)
		b.Run(benchName("k", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.ConsistentWorlds(n, pairs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExpectedOptimalOrder(b *testing.B) {
	n, pairs := worldPairs(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.BruteForceExpectedOptimal(n, pairs); err != nil {
			b.Fatal(err)
		}
	}
}

// deductionWorkload builds a labeled-pair stream and query set over a
// ground-truth partition.
func deductionWorkload(n, streamLen, queries int) ([]clustergraph.LabeledPair, [][2]int32) {
	rng := rand.New(rand.NewSource(13))
	entity := make([]int32, n)
	for i := range entity {
		entity[i] = int32(rng.Intn(n / 8))
	}
	stream := make([]clustergraph.LabeledPair, 0, streamLen)
	for len(stream) < streamLen {
		a, c := int32(rng.Intn(n)), int32(rng.Intn(n))
		if a == c {
			continue
		}
		stream = append(stream, clustergraph.LabeledPair{A: a, B: c, Matching: entity[a] == entity[c]})
	}
	qs := make([][2]int32, queries)
	for i := range qs {
		qs[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	return stream, qs
}

// BenchmarkClusterGraphDeduce measures the pure deduction hot path on a
// populated graph: 0 allocs/op.
func BenchmarkClusterGraphDeduce(b *testing.B) {
	const n = 4096
	stream, queries := deductionWorkload(n, 3*n, 1024)
	g := clustergraph.New(n)
	for _, lp := range stream {
		g.ForceInsert(lp.A, lp.B, lp.Matching)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i&(len(queries)-1)]
		_ = g.Deduce(q[0], q[1])
	}
}

// BenchmarkClusterGraphInsert measures a full Reset+rebuild of the graph
// from a labeled stream; after the first warm-up rebuild, the slices and
// bitset rows are all reused, so steady state is 0 allocs/op.
func BenchmarkClusterGraphInsert(b *testing.B) {
	const n = 4096
	stream, _ := deductionWorkload(n, 3*n, 1)
	g := clustergraph.New(n)
	for _, lp := range stream {
		g.ForceInsert(lp.A, lp.B, lp.Matching) // warm capacity
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Reset()
		for _, lp := range stream {
			g.ForceInsert(lp.A, lp.B, lp.Matching)
		}
	}
	b.ReportMetric(float64(len(stream)), "inserts/op")
}

// BenchmarkClusterGraphSnapshotRollback measures the world-enumeration
// inner step: snapshot, a few inserts, rollback. Steady state allocates
// nothing — the journal's capacity is retained across rollbacks.
func BenchmarkClusterGraphSnapshotRollback(b *testing.B) {
	const n = 256
	stream, _ := deductionWorkload(n, n, 1)
	g := clustergraph.New(n)
	for _, lp := range stream {
		g.ForceInsert(lp.A, lp.B, lp.Matching)
	}
	probe := []clustergraph.LabeledPair{
		{A: 0, B: 100, Matching: true},
		{A: 1, B: 101, Matching: true},
		{A: 0, B: 1, Matching: false},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := g.Snapshot()
		for _, lp := range probe {
			g.ForceInsert(lp.A, lp.B, lp.Matching)
		}
		g.Rollback(m)
	}
}

// BenchmarkStreamingAppend measures the cost of growing a live join: 90%
// of the Paper dataset is indexed and fully labeled as untimed setup, and
// the timed section is Join.Append of the remaining 10% — the incremental
// candidate generation (probing the size-sorted runs, no CSR rebuild) plus
// the live partition update. The untimed finishing Run replays the setup
// answers from the session cache and buys only the appended pairs'
// answers. Metrics: sustained append throughput (records/sec); append
// wall-clock as a percentage of a full from-scratch join over the same
// corpus (vs-scratch-%); and the crowd questions the finish needed as a
// percentage of the from-scratch join's (crowd-vs-scratch-%). The
// streaming acceptance criterion is that appending the last 10% costs
// under a quarter of starting over, on both axes.
func BenchmarkStreamingAppend(b *testing.B) {
	e := benchEnv(b)
	d := e.Paper.Dataset
	texts := make([]string, d.Len())
	for i := range texts {
		texts[i] = d.Records[i].Text()
	}
	entity := d.Entities()
	oracle := crowdjoin.OracleFunc(func(p crowdjoin.Pair) crowdjoin.Label {
		if entity[p.A] == entity[p.B] {
			return crowdjoin.Matching
		}
		return crowdjoin.NonMatching
	})
	matcher := crowdjoin.WithMatcher(crowdjoin.Matcher{Threshold: 0.3})
	ctx := context.Background()
	cut := d.Len() * 9 / 10
	tail := texts[cut:]

	// Reference: the from-scratch join over the full corpus that an append
	// saves. Timed once, outside the loop.
	scratchStart := time.Now()
	js, err := crowdjoin.NewJoin(crowdjoin.WithTexts(texts), matcher, crowdjoin.WithOracle(oracle))
	if err != nil {
		b.Fatal(err)
	}
	scratchRes, err := js.Run(ctx)
	if err != nil {
		b.Fatal(err)
	}
	scratch := time.Since(scratchStart)

	crowdPct := -1.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		j, err := crowdjoin.NewJoin(crowdjoin.WithTexts(texts[:cut]), matcher, crowdjoin.WithOracle(oracle))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := j.Run(ctx); err != nil {
			b.Fatal(err)
		}
		// Activate streaming (index the initial corpus) before the clock
		// starts: the timed section is the marginal cost of the arrival.
		if _, err := j.Append(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := j.Append(tail...); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		res, err := j.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if crowdPct < 0 {
			fresh := res.NumCrowdsourced - res.Replayed
			crowdPct = 100 * float64(fresh) / float64(scratchRes.NumCrowdsourced)
		}
		b.StartTimer()
	}
	perOp := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(float64(len(tail))/perOp.Seconds(), "records/sec")
	b.ReportMetric(100*float64(perOp)/float64(scratch), "vs-scratch-%")
	b.ReportMetric(crowdPct, "crowd-vs-scratch-%")
}

// BenchmarkStreamingStep times one streaming session the way perfbench's
// paper-stream workload runs it, with no crowd sleeps: a 4,000-record
// Cora-style corpus (largest cluster 102), a session opened on its first
// 2,000 records from a copy of their label journal, then 40 steps of
// Append 50 records, sequential Run and Clusters on that file journal. One
// op is one session. open-ms is the session-opening step (copying the
// journal, NewJoin and the first step, whose Append indexes the initial
// corpus), step-ms the mean of the 39 later steps, and questions the crowd
// questions per session.
func BenchmarkStreamingStep(b *testing.B) {
	const records, initial, batch = 4000, 2000, 50
	const steps = (records - initial) / batch
	cfg := dataset.DefaultCoraConfig()
	cfg.Records = records
	cfg.LargestCluster = min(cfg.LargestCluster, records/4) // perfbench's paperCorpus
	d := dataset.GenerateCora(cfg)
	texts := make([]string, d.Len())
	for i := range texts {
		texts[i] = d.Records[i].Text()
	}
	truth := &crowdjoin.TruthOracle{Entity: d.Entities()}
	ctx := context.Background()
	dir := b.TempDir()

	// The initial journal: one Run over the first records, as a session
	// that ran before the stream began would leave it.
	basePath := filepath.Join(dir, "base.journal")
	f, err := crowdjoin.OpenJournalFile(basePath)
	if err != nil {
		b.Fatal(err)
	}
	j, err := crowdjoin.NewJoin(crowdjoin.WithTexts(texts[:initial]), crowdjoin.WithOracle(truth), crowdjoin.WithJournal(f))
	if err == nil {
		_, err = j.Run(ctx)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		b.Fatal(err)
	}
	base, err := os.ReadFile(basePath)
	if err != nil {
		b.Fatal(err)
	}

	var questions int
	crowd := crowdjoin.OracleFunc(func(p crowdjoin.Pair) crowdjoin.Label {
		questions++
		return truth.Label(p)
	})
	path := filepath.Join(dir, "session.journal")
	var open, later time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if err := os.WriteFile(path, base, 0o644); err != nil {
			b.Fatal(err)
		}
		f, err := crowdjoin.OpenJournalFile(path)
		if err != nil {
			b.Fatal(err)
		}
		j, err := crowdjoin.NewJoin(crowdjoin.WithTexts(texts[:initial]), crowdjoin.WithOracle(crowd), crowdjoin.WithJournal(f))
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < steps; k++ {
			lo := initial + k*batch
			if _, err := j.Append(texts[lo : lo+batch]...); err != nil {
				b.Fatal(err)
			}
			res, err := j.Run(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := res.Clusters(); err != nil {
				b.Fatal(err)
			}
			if k == 0 {
				now := time.Now()
				open += now.Sub(start)
				start = now
			}
		}
		later += time.Since(start)
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(open.Microseconds())/1e3/float64(b.N), "open-ms")
	b.ReportMetric(float64(later.Microseconds())/1e3/float64(b.N*(steps-1)), "step-ms")
	b.ReportMetric(float64(questions)/float64(b.N), "questions")
}
