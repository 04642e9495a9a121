package main

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"crowdjoin"
)

// cycleLen is how many corpora paper-batch cycles through; its count
// metrics average over the whole cycle.
const cycleLen = 32

// tracedBatch spans every crowd round under the driver span parent.
func tracedBatch(o crowdjoin.BatchOracle, tr *tracer, op int64, parent int) crowdjoin.BatchOracle {
	if tr == nil {
		return o
	}
	return crowdjoin.BatchOracleFunc(func(ps []crowdjoin.Pair) []crowdjoin.Label {
		s := tr.begin("crowd", op, parent)
		defer tr.end(s)
		return o.LabelBatch(ps)
	})
}

// tracedPlatform spans Publish and NextLabel under the driver span;
// Available is a counter read and passes through.
type tracedPlatform struct {
	crowdjoin.Platform
	tr     *tracer
	op     int64
	parent int
}

func (p tracedPlatform) Publish(ps []crowdjoin.Pair) {
	s := p.tr.begin("crowd", p.op, p.parent)
	defer p.tr.end(s)
	p.Platform.Publish(ps)
}

func (p tracedPlatform) NextLabel() (crowdjoin.Pair, crowdjoin.Label, bool) {
	s := p.tr.begin("crowd", p.op, p.parent)
	defer p.tr.end(s)
	return p.Platform.NextLabel()
}

// noteResult adds a labeling result's core counters to the trace.
func noteResult(tr *tracer, res *crowdjoin.JoinResult) {
	tr.add("core.deduced", float64(res.NumDeduced))
	tr.add("core.crowdsourced", float64(res.NumCrowdsourced))
	tr.add("core.conflicts", float64(res.Conflicts))
	tr.add("core.publishes", float64(len(res.PublishSizes)))
}

// clusters computes the result's clusters inside a "clusters" span.
func clusters(tr *tracer, op int64, root int, res *crowdjoin.JoinResult) ([][]int32, error) {
	s := tr.begin("clusters", op, root)
	cl, err := res.Clusters()
	tr.end(s)
	tr.add("clustergraph.clusters", float64(len(cl)))
	return cl, err
}

// ---- paper-batch ----

// batchRef is the reference outcome of one corpus of the cycle.
type batchRef struct {
	c        *corpus
	labels   []crowdjoin.Label
	clusters [][]int32
	rounds   int
	asked    int
	f1       float64
}

type paperBatch struct {
	items []batchRef
	next  int64
}

// setupPaperBatch generates the cycle's Paper corpora and joins each once
// for its reference result (which also warms the process up).
func setupPaperBatch(seed int64, _ string) (instance, error) {
	w := &paperBatch{}
	for i := 0; i < cycleLen; i++ {
		c := paperCorpus(997, subSeed(seed, i))
		res, cl, err := w.join(c, nil, 0)
		if err != nil {
			return nil, err
		}
		w.items = append(w.items, batchRef{c: c, labels: res.Labels, clusters: cl,
			rounds: len(res.RoundSizes), asked: res.NumCrowdsourced, f1: c.f1(cl)})
	}
	return w, nil
}

// join runs texts → Join.Run (parallel strategy, perfect batch crowd) →
// Clusters. Traced, it makes the same calls split at the layer
// boundaries: Matcher.Candidates, ExpectedOrder, Join.Run over the ordered
// pairs, Clusters.
func (w *paperBatch) join(c *corpus, tr *tracer, op int64) (*crowdjoin.JoinResult, [][]int32, error) {
	root := tr.begin("op", op, -1)
	defer tr.end(root)
	crowd := batchOf(c.truth())
	if tr == nil {
		j, err := crowdjoin.NewJoin(crowdjoin.WithTexts(c.texts), crowdjoin.WithMatcher(crowdjoin.Matcher{Threshold: threshold}),
			crowdjoin.WithStrategy(crowdjoin.ParallelStrategy), crowdjoin.WithBatchOracle(crowd))
		if err != nil {
			return nil, nil, err
		}
		res, err := j.Run(context.Background())
		if err != nil {
			return nil, nil, err
		}
		cl, err := res.Clusters()
		return res, cl, err
	}
	s := tr.begin("candgen", op, root)
	pairs, err := crowdjoin.Matcher{Threshold: threshold}.Candidates(c.texts)
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	tr.add("candgen.pairs", float64(len(pairs)))
	s = tr.begin("order", op, root)
	order := crowdjoin.ExpectedOrder(pairs)
	tr.end(s)
	lab := tr.begin("label", op, root)
	j, err := crowdjoin.NewJoin(crowdjoin.WithPairs(len(c.texts), order), crowdjoin.WithOrder(crowdjoin.OrderAsGiven),
		crowdjoin.WithStrategy(crowdjoin.ParallelStrategy), crowdjoin.WithBatchOracle(tracedBatch(crowd, tr, op, lab)))
	if err != nil {
		return nil, nil, err
	}
	res, err := j.Run(context.Background())
	tr.end(lab)
	if err != nil {
		return nil, nil, err
	}
	noteResult(tr, res)
	cl, err := clusters(tr, op, root, res)
	return res, cl, err
}

func (w *paperBatch) op(tr *tracer) (time.Duration, error) {
	op := w.next
	w.next++
	ref := &w.items[op%int64(len(w.items))]
	t0 := time.Now()
	res, cl, err := w.join(ref.c, tr, op)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if !slices.Equal(res.Labels, ref.labels) || !sameClusters(cl, ref.clusters) {
		return d, fmt.Errorf("paper-batch op %d: labels or clusters differ from the reference", op)
	}
	return d, nil
}

func (w *paperBatch) counts() countMetrics {
	return meanCounts(w.items, func(r *batchRef) countMetrics {
		return countMetrics{float64(r.asked), float64(r.rounds), r.f1}
	})
}

func (w *paperBatch) close() error { return nil }

// ---- paper-amt ----

// amtCrowd is the paper's Table 2 crowd: 20-pair HITs, 3 assignments with
// majority vote, qualification tests, similarity-confused workers. Its
// simulator seed stays the default for every corpus and run seed: one
// worker pool, whose spammer count would otherwise swing an op's cost and
// F1 more than the corpus does.
func amtCrowd() crowdjoin.AMTConfig {
	cfg := crowdjoin.DefaultAMTConfig()
	cfg.Model = crowdjoin.SimilarityConfusedWorkers{BaseAccuracy: 0.95, MatchConfusion: 0.12, NonMatchConfusion: 0.65}
	return cfg
}

// amtRef is one corpus of the paper-amt cycle: its candidates (built in
// set-up) and the reference outcome of its simulated AMT run.
type amtRef struct {
	c      *corpus
	pairs  []crowdjoin.Pair
	asked  int
	hits   int
	hours  float64
	rounds int
	f1     float64
}

// amtCycleLen is the paper-amt cycle length. Its ops vary most in cost
// (one corpus's op can take 4× another's), so it averages over more
// corpora than paper-batch. The cycle is ordered so that each of its
// amtCycleLen/amtWindow throughput windows holds a like mix of costs.
const (
	amtCycleLen = 48
	amtWindow   = 8
)

type paperAMT struct {
	items []amtRef
	next  atomic.Int64
}

// setupPaperAMT builds the cycle's candidates and reference runs, on as
// many goroutines as there are CPUs.
func setupPaperAMT(seed int64, _ string) (instance, error) {
	w := &paperAMT{items: make([]amtRef, amtCycleLen)}
	err := forEach(amtCycleLen, func(i int) error {
		c := paperCorpus(997, subSeed(seed, i))
		pairs, err := crowdjoin.Matcher{Threshold: threshold}.Candidates(c.texts)
		if err != nil {
			return err
		}
		ref := amtRef{c: c, pairs: pairs}
		out, err := w.join(&ref, nil, 0)
		if err != nil {
			return err
		}
		ref.asked, ref.hits, ref.hours, ref.rounds, ref.f1 = out.asked, out.hits, out.hours, out.rounds, c.f1(out.clusters)
		w.items[i] = ref
		return nil
	})
	if err != nil {
		return nil, err
	}
	w.items = stratify(w.items, amtWindow, func(r *amtRef) float64 { return float64(len(r.pairs)) * float64(r.asked) })
	return w, nil
}

// stratify reorders items so that every consecutive window of window items
// takes one item from each cost stratum: items are ranked by cost (ties
// keep their order) and the strata of len(items)/window ranks are dealt
// out to the windows in a snake; len(items) must be a multiple of window.
// cost is a deterministic estimate of an
// item's op time; candidates × questions tracks paper-amt's op time with
// r ≈ 0.8.
func stratify[T any](items []T, window int, cost func(*T) float64) []T {
	rank := make([]int, len(items))
	for i := range rank {
		rank[i] = i
	}
	slices.SortStableFunc(rank, func(a, b int) int { return cmp.Compare(cost(&items[a]), cost(&items[b])) })
	windows := len(items) / window
	out := make([]T, len(items))
	for r, i := range rank {
		stratum, k := r/windows, r%windows
		if stratum%2 == 1 {
			k = windows - 1 - k
		}
		out[k*window+stratum] = items[i]
	}
	return out
}

type amtOutcome struct {
	asked, hits, rounds int
	hours               float64
	clusters            [][]int32
}

// join labels the corpus's candidates with PlatformStrategy on a fresh AMT
// simulator (instant decisions, incremental scan and deduction on).
func (w *paperAMT) join(ref *amtRef, tr *tracer, op int64) (amtOutcome, error) {
	root := tr.begin("op", op, -1)
	defer tr.end(root)
	sim, err := crowdjoin.NewAMTSimulator(ref.c.truth().Matches, amtCrowd())
	if err != nil {
		return amtOutcome{}, err
	}
	opts := []crowdjoin.JoinOption{crowdjoin.WithStrategy(crowdjoin.PlatformStrategy),
		crowdjoin.WithInstantDecisions(true), crowdjoin.WithIncrementalPlatform(true, true)}
	var pf crowdjoin.Platform = sim
	lab := -1
	if tr == nil {
		opts = append(opts, crowdjoin.WithPairs(len(ref.c.texts), ref.pairs))
	} else {
		s := tr.begin("order", op, root)
		order := crowdjoin.ExpectedOrder(ref.pairs)
		tr.end(s)
		opts = append(opts, crowdjoin.WithPairs(len(ref.c.texts), order), crowdjoin.WithOrder(crowdjoin.OrderAsGiven))
		lab = tr.begin("label", op, root)
		pf = tracedPlatform{Platform: sim, tr: tr, op: op, parent: lab}
	}
	j, err := crowdjoin.NewJoin(append(opts, crowdjoin.WithPlatform(pf))...)
	if err != nil {
		return amtOutcome{}, err
	}
	res, err := j.Run(context.Background())
	if lab >= 0 {
		tr.end(lab)
	}
	if err != nil {
		return amtOutcome{}, err
	}
	noteResult(tr, res)
	cl, err := clusters(tr, op, root, res)
	if err != nil {
		return amtOutcome{}, err
	}
	tr.add("crowd.hits", float64(sim.HITs()))
	tr.add("crowd.assignments", float64(sim.AssignmentsDone()))
	tr.add("crowd.cost_cents", float64(sim.CostCents()))
	tr.add("crowd.hours", sim.Now())
	return amtOutcome{asked: res.NumCrowdsourced, hits: sim.HITs(), rounds: len(res.PublishSizes),
		hours: sim.Now(), clusters: cl}, nil
}

func (w *paperAMT) op(tr *tracer) (time.Duration, error) {
	op := w.next.Add(1) - 1
	ref := &w.items[op%int64(len(w.items))]
	t0 := time.Now()
	out, err := w.join(ref, tr, op)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if f1 := ref.c.f1(out.clusters); out.asked != ref.asked || out.hits != ref.hits || out.hours != ref.hours || f1 != ref.f1 {
		return d, fmt.Errorf("paper-amt op %d: got %d questions, %d HITs, %v h, F1 %v; reference %d, %d, %v h, %v",
			op, out.asked, out.hits, out.hours, f1, ref.asked, ref.hits, ref.hours, ref.f1)
	}
	return d, nil
}

func (w *paperAMT) counts() countMetrics {
	return meanCounts(w.items, func(r *amtRef) countMetrics {
		return countMetrics{float64(r.asked), float64(r.rounds), r.f1}
	})
}

func (w *paperAMT) close() error { return nil }
