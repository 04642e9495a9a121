package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// randomShardWorkload builds a multi-component candidate set: objects are
// grouped into entities, pairs are drawn mostly within entity neighborhoods
// so the candidate graph splits into several connected components, and
// likelihoods correlate with the truth (matching pairs high).
func randomShardWorkload(rng *rand.Rand) (numObjects int, order []Pair, truth *TruthOracle) {
	numObjects = 20 + rng.Intn(60)
	entity := make([]int32, numObjects)
	numEntities := 2 + rng.Intn(numObjects/2)
	for i := range entity {
		entity[i] = int32(rng.Intn(numEntities))
	}
	numPairs := numObjects/2 + rng.Intn(2*numObjects)
	pairs := make([]Pair, 0, numPairs)
	for len(pairs) < numPairs {
		a := int32(rng.Intn(numObjects))
		// Mostly local pairs, so the graph fractures into components.
		b := a + int32(rng.Intn(7)) - 3
		if rng.Intn(8) == 0 {
			b = int32(rng.Intn(numObjects))
		}
		if b < 0 || b >= int32(numObjects) || a == b {
			continue
		}
		lik := 0.55 + 0.45*rng.Float64()
		if entity[a] != entity[b] {
			lik = 0.45 * rng.Float64()
		}
		if rng.Intn(10) == 0 {
			lik = rng.Float64() // noise: sometimes the machine is wrong
		}
		pairs = append(pairs, Pair{ID: len(pairs), A: a, B: b, Likelihood: lik})
	}
	return numObjects, ExpectedOrder(pairs), &TruthOracle{Entity: entity}
}

func TestBuildPartitionStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		numObjects, order, _ := randomShardWorkload(rng)
		pt, err := BuildPartition(numObjects, order, TriageBands{})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for c := range pt.Shards {
			s := &pt.Shards[c]
			if s.Component != c {
				t.Fatalf("shard %d has component id %d", c, s.Component)
			}
			if err := ValidatePairs(s.NumObjects, s.Order); err != nil {
				t.Fatalf("shard %d order invalid: %v", c, err)
			}
			if len(s.Order) != len(s.Global) {
				t.Fatalf("shard %d: %d local pairs, %d global", c, len(s.Order), len(s.Global))
			}
			objs := shardObjects(t, s)
			prevGlobalPos := -1
			for i, lp := range s.Order {
				if lp.ID != i {
					t.Fatalf("shard %d local pair %d has ID %d", c, i, lp.ID)
				}
				gp := s.Global[i]
				if objs[lp.A] != gp.A || objs[lp.B] != gp.B || lp.Likelihood != gp.Likelihood {
					t.Fatalf("shard %d pair %d: local %v does not mirror global %v", c, i, lp, gp)
				}
				si, li := pt.Locate(gp.ID)
				if si != c || li != i {
					t.Fatalf("Locate(%d) = (%d,%d), want (%d,%d)", gp.ID, si, li, c, i)
				}
				// Relative order must match the global order.
				pos := posInOrder(order, gp.ID)
				if pos <= prevGlobalPos {
					t.Fatalf("shard %d breaks the global order: pair %v at global pos %d after %d", c, gp, pos, prevGlobalPos)
				}
				prevGlobalPos = pos
			}
			total += len(s.Order)
		}
		if total != len(order) {
			t.Fatalf("shards hold %d pairs, order has %d", total, len(order))
		}
		// No object may appear in two shards.
		seen := make(map[int32]int)
		for c := range pt.Shards {
			for _, o := range shardObjects(t, &pt.Shards[c]) {
				if prev, ok := seen[o]; ok && prev != c {
					t.Fatalf("object %d in shards %d and %d", o, prev, c)
				}
				seen[o] = c
			}
		}
	}
}

// shardObjects recovers a shard's local-to-global object map from its
// Order and Global: one global object per local id, one local id per global
// object, and every local id in [0, NumObjects) used.
func shardObjects(t *testing.T, s *Shard) []int32 {
	t.Helper()
	objs := make([]int32, s.NumObjects)
	for i := range objs {
		objs[i] = -1
	}
	localOf := make(map[int32]int32)
	for i, lp := range s.Order {
		gp := s.Global[i]
		for _, m := range [2][2]int32{{lp.A, gp.A}, {lp.B, gp.B}} {
			local, global := m[0], m[1]
			if local < 0 || int(local) >= s.NumObjects {
				t.Fatalf("shard %d pair %d: local object %d outside [0,%d)", s.Component, i, local, s.NumObjects)
			}
			if objs[local] != -1 && objs[local] != global {
				t.Fatalf("shard %d: local object %d maps to %d and %d", s.Component, local, objs[local], global)
			}
			if prev, ok := localOf[global]; ok && prev != local {
				t.Fatalf("shard %d: object %d has local ids %d and %d", s.Component, global, prev, local)
			}
			objs[local], localOf[global] = global, local
		}
	}
	for local, o := range objs {
		if o == -1 {
			t.Fatalf("shard %d: local object %d of %d unused", s.Component, local, s.NumObjects)
		}
	}
	return objs
}

func posInOrder(order []Pair, id int) int {
	for pos, p := range order {
		if p.ID == id {
			return pos
		}
	}
	return -1
}

// flakyOracle answers wrongly on a deterministic, order-independent subset
// of pairs, so sharded and unsharded runs see identical per-pair answers
// while conflicts still occur.
type flakyOracle struct {
	truth *TruthOracle
}

func (f flakyOracle) Label(p Pair) Label {
	l := f.truth.Label(p)
	if (int64(p.A)*2654435761+int64(p.B)*40503)%13 == 0 {
		if l == Matching {
			return NonMatching
		}
		return Matching
	}
	return l
}

// TestShardedDriversMatchUnsharded is the randomized differential suite:
// for every strategy the sharded driver must reproduce the unsharded
// driver's result exactly — labels, crowdsourced flags, counters, and (for
// parallel) the per-round series — at several concurrency levels,
// including flaky crowds.
func TestShardedDriversMatchUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 40; trial++ {
		numObjects, order, truth := randomShardWorkload(rng)
		oracles := []Oracle{truth, flakyOracle{truth}}
		oracle := oracles[trial%len(oracles)]
		pt, err := BuildPartition(numObjects, order, TriageBands{})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 4, 16} {
			seq, err := LabelSequentialRun(numObjects, order, oracle, Rules{}, RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			sseq, err := LabelPartitionedSequentialRun(pt, oracle, Rules{}, k, RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, sseq) {
				t.Fatalf("trial %d k=%d: sharded sequential diverged:\n%+v\nvs\n%+v", trial, k, sseq, seq)
			}

			par, err := labelParallel(numObjects, order, Batched(oracle), RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			for _, balanced := range []bool{false, true} {
				spar, err := labelRounds(pt, Batched(oracle), k, balanced, RunOpts{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(par.Result, spar.Result) || par.Conflicts != spar.Conflicts {
					t.Fatalf("trial %d k=%d balanced=%v: sharded parallel result diverged", trial, k, balanced)
				}
				if !equalIntSlices(par.RoundSizes, spar.RoundSizes) {
					t.Fatalf("trial %d k=%d balanced=%v: round sizes %v, want %v", trial, k, balanced, spar.RoundSizes, par.RoundSizes)
				}
			}

			oto, err := LabelSequentialRun(numObjects, order, oracle, Rules{OneToOne: true}, RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			soto, err := LabelPartitionedSequentialRun(pt, oracle, Rules{OneToOne: true}, k, RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(oto, soto) {
				t.Fatalf("trial %d k=%d: sharded one-to-one diverged", trial, k)
			}
		}
	}
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardedProgressEventsCarryComponents checks that every event of a
// sharded run carries the component id of its pair and global coordinates.
func TestShardedProgressEventsCarryComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	numObjects, order, truth := randomShardWorkload(rng)
	pt, err := BuildPartition(numObjects, order, TriageBands{})
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[int]Pair, len(order))
	for _, p := range order {
		byID[p.ID] = p
	}
	var events []Event
	ro := RunOpts{Progress: func(e Event) { events = append(events, e) }}
	res, err := labelRounds(pt, Batched(truth), 4, false, ro)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCrowdsourced+res.NumDeduced != len(order) {
		t.Fatalf("short result: %d+%d labels for %d pairs", res.NumCrowdsourced, res.NumDeduced, len(order))
	}
	pairEvents := 0
	for _, e := range events {
		if e.Kind == EventRoundPublished {
			if e.Component < 0 || e.Component >= len(pt.Shards) {
				t.Fatalf("round event carries component %d of %d", e.Component, len(pt.Shards))
			}
			continue
		}
		pairEvents++
		want, ok := byID[e.Pair.ID]
		if !ok || want != e.Pair {
			t.Fatalf("event pair %v is not the global pair %v", e.Pair, want)
		}
		si, _ := pt.Locate(e.Pair.ID)
		if si != e.Component {
			t.Fatalf("event for pair %v carries component %d, want %d", e.Pair, e.Component, si)
		}
	}
	if pairEvents != len(order) {
		t.Fatalf("saw %d pair events for %d pairs", pairEvents, len(order))
	}
}

// TestShardedCancellation: a cancelled sharded run returns the context
// error and a consistent partial result — every label present is the
// truth's (perfect crowd), nothing is double-counted, and unreached pairs
// stay Unlabeled.
func TestShardedCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		numObjects, order, truth := randomShardWorkload(rng)
		pt, err := BuildPartition(numObjects, order, TriageBands{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		stopAfter := 1 + rng.Intn(8) // early enough that most trials cancel mid-run
		seen := 0
		ro := RunOpts{Ctx: ctx, Progress: func(e Event) {
			if e.Kind == EventPairCrowdsourced {
				if seen++; seen == stopAfter {
					cancel()
				}
			}
		}}
		res, err := LabelPartitionedSequentialRun(pt, truth, Rules{}, 3, ro)
		cancel()
		if err != context.Canceled && err != nil {
			t.Fatalf("trial %d: err = %v, want context.Canceled or nil", trial, err)
		}
		labeled := 0
		for _, p := range order {
			switch res.Labels[p.ID] {
			case Unlabeled:
				continue
			case LabelOf(truth.Matches(p.A, p.B)):
				labeled++
			default:
				t.Fatalf("trial %d: pair %v labeled %v against truth", trial, p, res.Labels[p.ID])
			}
		}
		if got := res.NumCrowdsourced + res.NumDeduced; got != labeled {
			t.Fatalf("trial %d: counters %d, labeled %d", trial, got, labeled)
		}
		if err == nil && labeled != len(order) {
			t.Fatalf("trial %d: nil error but only %d of %d pairs labeled", trial, labeled, len(order))
		}
	}
}

// TestPartitionedSequentialRefusesSplitBudget: a budget caps the whole
// session's questions, so it is refused on more than one shard and runs
// unchanged on one, translated (a one-component BuildPartition) or in
// place (SinglePartition).
func TestPartitionedSequentialRefusesSplitBudget(t *testing.T) {
	// Seed 11's candidate graph has several components, seed 5's one.
	for _, seed := range []int64{11, 5} {
		rng := rand.New(rand.NewSource(seed))
		numObjects, order, truth := randomShardWorkload(rng)
		want, err := LabelSequentialRun(numObjects, order, truth, budgetRules(3), RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		pt, err := BuildPartition(numObjects, order, TriageBands{})
		if err != nil {
			t.Fatal(err)
		}
		single, err := SinglePartition(numObjects, order)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*Partition{pt, single} {
			got, err := LabelPartitionedSequentialRun(p, truth, budgetRules(3), 1, RunOpts{})
			if len(p.Shards) > 1 {
				if err == nil {
					t.Fatalf("seed %d: budget split across %d shards accepted", seed, len(p.Shards))
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d: budget on one shard diverged:\n%+v\nvs\n%+v", seed, got, want)
			}
		}
		if (len(pt.Shards) > 1) != (seed == 11) {
			t.Fatalf("seed %d built %d components", seed, len(pt.Shards))
		}
	}
}

// errOnlyContext reports an error from Err without ever closing Done: the
// moment after a caller's context is cancelled and before its cancel has
// reached the contexts derived from it.
type errOnlyContext struct {
	context.Context
	err error
}

func (c *errOnlyContext) Err() error { return c.err }

// TestPartitionedSequentialReadsCallerCancellationFirst: an oracle that
// sees the caller's context cancelled gives up without an answer; the
// shard must treat that as the cancellation, before the caller's cancel
// has reached the shard's own context, and return the partial result.
func TestPartitionedSequentialReadsCallerCancellationFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	numObjects, order, truth := randomShardWorkload(rng)
	pt, err := BuildPartition(numObjects, order, TriageBands{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &errOnlyContext{Context: context.Background()}
	asked := 0
	oracle := OracleFunc(func(p Pair) Label {
		if asked++; asked == 3 {
			ctx.err = context.Canceled
			return Unlabeled
		}
		return truth.Label(p)
	})
	res, err := LabelPartitionedSequentialRun(pt, oracle, Rules{}, 1, RunOpts{Ctx: ctx})
	if err != context.Canceled || res == nil {
		t.Fatalf("got (%v, %v), want a partial result and context.Canceled", res != nil, err)
	}
	if res.NumCrowdsourced != 2 {
		t.Fatalf("partial result holds %d crowd answers, want 2", res.NumCrowdsourced)
	}
}

// TestPartitionedSequentialHardFailure: an invalid answer fails the whole
// run with a nil result and the shard's own error, and shards that start
// after the failure ask the crowd nothing.
func TestPartitionedSequentialHardFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	numObjects, order, truth := randomShardWorkload(rng)
	pt, err := BuildPartition(numObjects, order, TriageBands{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 4} {
		var mu sync.Mutex
		failed, askedAfter := false, 0
		oracle := OracleFunc(func(p Pair) Label {
			mu.Lock()
			defer mu.Unlock()
			if !failed {
				failed = true
				return Unlabeled
			}
			askedAfter++
			return truth.Label(p)
		})
		res, err := LabelPartitionedSequentialRun(pt, oracle, Rules{}, k, RunOpts{})
		if res != nil || err == nil || errors.Is(err, errSiblingFailed) {
			t.Fatalf("k=%d: got (%v, %v), want no result and the invalid-answer error", k, res != nil, err)
		}
		if k == 1 && askedAfter != 0 {
			t.Fatalf("k=1: %d questions asked after the failure", askedAfter)
		}
	}
}
