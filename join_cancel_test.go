package crowdjoin_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"crowdjoin"
	"crowdjoin/internal/core"
)

// cancelAfter wraps an oracle so the context is cancelled after n answers
// (the n answers themselves are still returned). Sharded sessions call it
// from several goroutines, so the count is atomic.
func cancelAfter(inner crowdjoin.Oracle, n int, cancel context.CancelFunc) crowdjoin.Oracle {
	var answered atomic.Int64
	return crowdjoin.OracleFunc(func(p crowdjoin.Pair) crowdjoin.Label {
		l := inner.Label(p)
		if answered.Add(1) == int64(n) {
			cancel()
		}
		return l
	})
}

// checkPartialConsistency verifies the cancellation contract: every
// crowdsourced label is present, every non-crowdsourced label is implied by
// the crowdsourced ones, and nothing deducible was left Unlabeled ("no lost
// deductions").
func checkPartialConsistency(t *testing.T, res *crowdjoin.JoinResult) {
	t.Helper()
	if !res.Partial {
		t.Fatal("result not marked Partial")
	}
	d := crowdjoin.NewDeducer(res.NumObjects)
	for _, p := range res.Order {
		if res.Crowdsourced[p.ID] {
			if err := d.Add(p.A, p.B, res.Labels[p.ID] == crowdjoin.Matching); err != nil {
				t.Fatalf("crowdsourced labels inconsistent at %v: %v", p, err)
			}
		}
	}
	for _, p := range res.Order {
		if res.Crowdsourced[p.ID] || (res.Guessed != nil && res.Guessed[p.ID]) {
			continue
		}
		implied, ok := d.Deduce(p.A, p.B)
		if res.Labels[p.ID] == crowdjoin.Unlabeled {
			if ok {
				t.Fatalf("lost deduction: %v is deducible (%v) but Unlabeled", p, implied)
			}
			continue
		}
		if !ok || implied != res.Labels[p.ID] {
			t.Fatalf("pair %v labeled %v, deduction says %v (implied=%v)", p, res.Labels[p.ID], implied, ok)
		}
	}
}

// recordingOracle records every pair its inner oracle answered. Sharded
// sessions call it from several goroutines.
type recordingOracle struct {
	inner crowdjoin.Oracle
	mu    sync.Mutex
	asked []crowdjoin.Pair
}

func (o *recordingOracle) Label(p crowdjoin.Pair) crowdjoin.Label {
	l := o.inner.Label(p)
	o.mu.Lock()
	o.asked = append(o.asked, p)
	o.mu.Unlock()
	return l
}

// TestJoinCancellationPartialResults: for every oracle-driven strategy,
// cancelling mid-join must return ctx.Err() together with a consistent
// partial result. The parallel rows, unsharded and at WithConcurrency(4)
// under each router, also require that no answer the crowd gave is lost:
// each answered pair is Crowdsourced in the partial result, and a Run
// resumed from the cancelled Run's journal asks none of them again.
func TestJoinCancellationPartialResults(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	numObjects, pairs, entity := randomJoinCase(rng)
	truth := &crowdjoin.TruthOracle{Entity: entity}

	strategies := []struct {
		name string
		s    crowdjoin.Strategy
	}{
		{"sequential", crowdjoin.SequentialStrategy},
		{"parallel", crowdjoin.ParallelStrategy},
		{"budget", crowdjoin.BudgetStrategy(len(pairs), 0.5)},
	}
	for _, tc := range strategies {
		for _, after := range []int{1, 3, 10} {
			ctx, cancel := context.WithCancel(context.Background())
			j, err := crowdjoin.NewJoin(
				crowdjoin.WithPairs(numObjects, pairs),
				crowdjoin.WithStrategy(tc.s),
				crowdjoin.WithOracle(cancelAfter(truth, after, cancel)),
			)
			if err != nil {
				t.Fatal(err)
			}
			res, err := j.Run(ctx)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s after %d: err = %v, want context.Canceled", tc.name, after, err)
			}
			if res == nil {
				t.Fatalf("%s after %d: nil partial result", tc.name, after)
			}
			if res.NumCrowdsourced == 0 {
				t.Fatalf("%s after %d: partial result recorded no crowd answers", tc.name, after)
			}
			checkPartialConsistency(t, res)
			if _, err := res.Clusters(); err != nil {
				t.Fatalf("%s after %d: partial clusters: %v", tc.name, after, err)
			}
		}
	}

	for _, row := range parallelCancelRows {
		for _, after := range []int{1, 3, 10} {
			checkParallelCancelKeepsAnswers(t, row.name, numObjects, pairs, truth, after, row.opts)
		}
		for seed := int64(1); seed <= 6; seed++ {
			n, ps, ent := randomJoinCase(rand.New(rand.NewSource(seed)))
			checkParallelCancelKeepsAnswers(t, row.name, n, ps, &crowdjoin.TruthOracle{Entity: ent}, 5, row.opts)
		}
	}
}

// parallelCancelRows are the ParallelStrategy configurations whose
// cancellation must keep every answer the crowd gave.
var parallelCancelRows = []struct {
	name string
	opts []crowdjoin.JoinOption
}{
	{"parallel", nil},
	{"parallel-k4-largest-first", []crowdjoin.JoinOption{crowdjoin.WithConcurrency(4)}},
	{"parallel-k4-balanced", []crowdjoin.JoinOption{crowdjoin.WithConcurrency(4), crowdjoin.WithRouter(crowdjoin.BalancedRouter)}},
}

// checkParallelCancelKeepsAnswers cancels a ParallelStrategy Run after the
// crowd's after-th answer, with and without a journal, and requires that
// every pair the crowd answered is Crowdsourced in the partial result and
// that a Run resumed from the journal asks none of them again.
func checkParallelCancelKeepsAnswers(t *testing.T, name string, numObjects int, pairs []crowdjoin.Pair, truth crowdjoin.Oracle, after int, extra []crowdjoin.JoinOption) {
	t.Helper()
	byKey := make(map[[2]int32]int, len(pairs))
	for _, p := range pairs {
		byKey[[2]int32{p.A, p.B}] = p.ID
	}
	cancelled := func(journal *bytes.Buffer) []crowdjoin.Pair {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rec := &recordingOracle{inner: truth}
		opts := []crowdjoin.JoinOption{
			crowdjoin.WithPairs(numObjects, pairs),
			crowdjoin.WithStrategy(crowdjoin.ParallelStrategy),
			crowdjoin.WithOracle(cancelAfter(rec, after, cancel)),
		}
		if journal != nil {
			opts = append(opts, crowdjoin.WithJournal(journal))
		}
		j, err := crowdjoin.NewJoin(append(opts, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Run(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s after %d: err = %v, want context.Canceled", name, after, err)
		}
		checkPartialConsistency(t, res)
		kept := 0
		for _, p := range rec.asked {
			if res.Crowdsourced[byKey[[2]int32{p.A, p.B}]] {
				kept++
			}
		}
		if kept != len(rec.asked) {
			t.Fatalf("%s after %d: partial result keeps %d of the %d answers the crowd gave", name, after, kept, len(rec.asked))
		}
		return rec.asked
	}
	cancelled(nil)

	var journal bytes.Buffer
	asked := cancelled(&journal)
	paid := make(map[[2]int32]bool, len(asked))
	for _, p := range asked {
		paid[[2]int32{p.A, p.B}] = true
	}
	rec := &recordingOracle{inner: truth}
	j, err := crowdjoin.NewJoin(append([]crowdjoin.JoinOption{
		crowdjoin.WithPairs(numObjects, pairs),
		crowdjoin.WithStrategy(crowdjoin.ParallelStrategy),
		crowdjoin.WithOracle(rec),
		crowdjoin.WithJournal(bytes.NewBuffer(journal.Bytes())),
	}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Run(context.Background()); err != nil {
		t.Fatalf("%s after %d: resumed Run: %v", name, after, err)
	}
	for _, p := range rec.asked {
		if paid[[2]int32{p.A, p.B}] {
			t.Fatalf("%s after %d: resumed Run asked %v again", name, after, p)
		}
	}
}

// TestJoinCancellationPlatform: the platform driver's cancellation sweep
// must deduce in-flight published pairs from the answers collected so far.
func TestJoinCancellationPlatform(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	numObjects, pairs, entity := randomJoinCase(rng)
	truth := &crowdjoin.TruthOracle{Entity: entity}

	for _, after := range []int{1, 5, 20} {
		ctx, cancel := context.WithCancel(context.Background())
		pf := core.NewSimPlatform(cancelAfter(truth, after, cancel), core.SelectAscendingLikelihood, nil)
		j, err := crowdjoin.NewJoin(
			crowdjoin.WithPairs(numObjects, pairs),
			crowdjoin.WithStrategy(crowdjoin.PlatformStrategy),
			crowdjoin.WithPlatform(pf),
			crowdjoin.WithInstantDecisions(true),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Run(ctx)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("after %d: err = %v, want context.Canceled", after, err)
		}
		checkPartialConsistency(t, res)
	}
}

// TestJoinCancellationOneToOne: the one-to-one sweep applies both free
// inference rules; with a perfect crowd on duplicate-free bipartite data
// every assigned label must agree with the truth.
func TestJoinCancellationOneToOne(t *testing.T) {
	// Duplicate-free bipartite universe: object i and i+n are the same
	// entity; likelihoods favor the true pairing.
	const n = 12
	numObjects := 2 * n
	entity := make([]int32, numObjects)
	for i := 0; i < n; i++ {
		entity[i], entity[i+n] = int32(i), int32(i)
	}
	rng := rand.New(rand.NewSource(17))
	var pairs []crowdjoin.Pair
	for a := 0; a < n; a++ {
		for b := n; b < numObjects; b++ {
			lik := 0.3 * rng.Float64()
			if entity[a] == entity[b] {
				lik = 0.6 + 0.4*rng.Float64()
			}
			pairs = append(pairs, crowdjoin.Pair{A: int32(a), B: int32(b), Likelihood: lik})
		}
	}
	pairs = crowdjoin.ExpectedOrder(pairs)
	for i := range pairs {
		pairs[i].ID = i
	}
	truth := &crowdjoin.TruthOracle{Entity: entity}

	ctx, cancel := context.WithCancel(context.Background())
	j, err := crowdjoin.NewJoin(
		crowdjoin.WithPairs(numObjects, pairs),
		crowdjoin.WithStrategy(crowdjoin.OneToOneStrategy),
		crowdjoin.WithOracle(cancelAfter(truth, 4, cancel)),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Run(ctx)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !res.Partial {
		t.Fatal("result not marked Partial")
	}
	labeled := 0
	for _, p := range res.Order {
		if res.Labels[p.ID] == crowdjoin.Unlabeled {
			continue
		}
		labeled++
		want := crowdjoin.NonMatching
		if entity[p.A] == entity[p.B] {
			want = crowdjoin.Matching
		}
		if res.Labels[p.ID] != want {
			t.Fatalf("pair %v labeled %v, truth %v", p, res.Labels[p.ID], want)
		}
	}
	// The 4 matching answers free 4 objects on each side; the constraint
	// sweep must have labeled their remaining partners without the crowd.
	if labeled <= res.NumCrowdsourced {
		t.Fatalf("cancellation sweep labeled nothing beyond the %d crowd answers", res.NumCrowdsourced)
	}
	if res.NumConstraintDeduced == 0 {
		t.Fatal("constraint deduced nothing in the sweep")
	}
}

// TestJoinCancelledBeforeStart: a context cancelled before Run still
// returns an all-Unlabeled partial result, not a nil one.
func TestJoinCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	j, err := crowdjoin.NewJoin(
		crowdjoin.WithTexts(exampleTexts),
		crowdjoin.WithOracle(exampleOracle()),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Run(ctx)
	if !errors.Is(err, context.Canceled) || res == nil {
		t.Fatalf("Run = (%v, %v), want partial result + context.Canceled", res, err)
	}
	if res.NumCrowdsourced != 0 {
		t.Errorf("crowdsourced %d pairs under a dead context", res.NumCrowdsourced)
	}
}
