package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"crowdjoin/internal/clustergraph"
)

// referencePlatform is the from-scratch formulation of the platform driver
// over the whole, unsharded order — Algorithm 3 rebuilt from scratch at
// every publish, a full deduction sweep after every answer, and a republish
// only once the platform drains (plain) or after every non-matching answer
// (instant) — kept as the correctness reference for the incremental,
// partition-native LabelPartitionedOnPlatformRun.
func referencePlatform(numObjects int, order []Pair, pf Platform, instant bool) (*TraceResult, error) {
	if err := ValidatePairs(numObjects, order); err != nil {
		return nil, err
	}
	res := &TraceResult{Result: *newResult(len(order))}
	labeled := clustergraph.New(numObjects)
	scratch := clustergraph.New(numObjects)
	published := make([]bool, len(order))
	byID := make([]Pair, len(order))
	for _, p := range order {
		byID[p.ID] = p
	}
	unlabeled := len(order)
	publish := func() {
		scratch.Reset()
		batch := crowdsourceable(scratch, order, res.Labels, published)
		if len(batch) == 0 {
			return
		}
		for _, p := range batch {
			published[p.ID] = true
		}
		pf.Publish(batch)
		res.PublishSizes = append(res.PublishSizes, len(batch))
		res.RoundSizes = append(res.RoundSizes, len(batch))
	}

	publish()
	for unlabeled > 0 {
		if pf.Available() == 0 {
			publish()
			if pf.Available() == 0 {
				return nil, errors.New("reference platform drained")
			}
		}
		ans, l, ok := pf.NextLabel()
		if !ok || ans.ID < 0 || ans.ID >= len(order) || !published[ans.ID] || res.Labels[ans.ID] != Unlabeled {
			return nil, fmt.Errorf("reference platform: bad answer %v", ans)
		}
		p := byID[ans.ID]
		if err := labeled.Insert(p.A, p.B, l == Matching); err != nil {
			if !errors.Is(err, clustergraph.ErrConflict) {
				return nil, err
			}
			res.Conflicts++
			if labeled.Deduce(p.A, p.B) == clustergraph.DeducedMatching {
				l = Matching
			} else {
				l = NonMatching
			}
		}
		res.Labels[p.ID] = l
		res.Crowdsourced[p.ID] = true
		res.NumCrowdsourced++
		unlabeled--
		for _, q := range order {
			if res.Labels[q.ID] != Unlabeled || published[q.ID] {
				continue
			}
			switch labeled.Deduce(q.A, q.B) {
			case clustergraph.DeducedMatching:
				res.Labels[q.ID] = Matching
			case clustergraph.DeducedNonMatching:
				res.Labels[q.ID] = NonMatching
			default:
				continue
			}
			res.NumDeduced++
			unlabeled--
		}
		if instant && l == NonMatching {
			publish()
		}
		res.Availability = append(res.Availability, pf.Available())
	}
	return res, nil
}

// labelOnOneShard runs the platform driver unsharded.
func labelOnOneShard(numObjects int, order []Pair, pf Platform, instant bool) (*TraceResult, error) {
	pt, err := SinglePartition(numObjects, order)
	if err != nil {
		return nil, err
	}
	return LabelPartitionedOnPlatformRun(pt, pf, instant, RunOpts{})
}

// rankedPlatform is a seeded-random crowd: its workers label the
// outstanding pair that comes first in a fixed random ranking of all pairs.
// Unlike SimPlatform's SelectRandom, a component's pairs come out in the
// same relative order whatever else is outstanding, so answers do not
// depend on how the candidate set is partitioned.
type rankedPlatform struct {
	oracle Oracle
	rank   []int // by pair ID
	queue  []Pair
}

func (r *rankedPlatform) Publish(ps []Pair) { r.queue = append(r.queue, ps...) }

func (r *rankedPlatform) Available() int { return len(r.queue) }

func (r *rankedPlatform) NextLabel() (Pair, Label, bool) {
	if len(r.queue) == 0 {
		return Pair{}, Unlabeled, false
	}
	best := 0
	for i, p := range r.queue {
		if r.rank[p.ID] < r.rank[r.queue[best].ID] {
			best = i
		}
	}
	p := r.queue[best]
	r.queue = append(r.queue[:best], r.queue[best+1:]...)
	return p, r.oracle.Label(p), true
}

// referenceWorker is one crowd the reference pins run. partitionFree: the
// worker answers a component's pairs in the same order under any partition.
type referenceWorker struct {
	name          string
	partitionFree bool
	new           func() Platform
}

// referenceCase is one randomized workload for the reference pins, with
// the crowds to run it on.
type referenceCase struct {
	numObjects int
	order      []Pair
	workers    []referenceWorker
}

// referenceCases draws trials multi-component workloads, alternating
// expected and random orders, answered by a flaky crowd when flaky is set
// and a perfect one otherwise, each run by first-in-first-out,
// lowest-likelihood-first, seeded-random, and SimPlatform's SelectRandom
// workers. SelectRandom draws from the whole outstanding pool, so its
// answers depend on the partition.
func referenceCases(rng *rand.Rand, trials int, flaky bool) []referenceCase {
	cases := make([]referenceCase, trials)
	for trial := range cases {
		numObjects, order, truth := randomShardWorkload(rng)
		if trial%2 == 1 {
			order = RandomOrder(order, rng)
		}
		var oracle Oracle = truth
		if flaky {
			oracle = flakyOracle{truth}
		}
		rank := rng.Perm(len(order))
		seed := rng.Int63()
		cases[trial] = referenceCase{numObjects, order, []referenceWorker{
			{"fifo", true, func() Platform { return NewSimPlatform(oracle, SelectFIFO, nil) }},
			{"ascending-likelihood", true, func() Platform { return NewSimPlatform(oracle, SelectAscendingLikelihood, nil) }},
			{"seeded-random", true, func() Platform { return &rankedPlatform{oracle: oracle, rank: rank} }},
			{"sim-random", false, func() Platform { return NewSimPlatform(oracle, SelectRandom, rand.New(rand.NewSource(seed))) }},
		}}
	}
	return cases
}

// checkOneShardMatchesReference runs every case's workers on a one-shard
// partition, for plain and instant decisions, and requires the reference's
// whole trace: labels, crowdsourced flags, counters, conflicts, publish
// sizes, and availability.
func checkOneShardMatchesReference(t *testing.T, cases []referenceCase) {
	t.Helper()
	for trial, c := range cases {
		single, err := SinglePartition(c.numObjects, c.order)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range c.workers {
			for _, instant := range []bool{false, true} {
				want, err := referencePlatform(c.numObjects, c.order, w.new(), instant)
				if err != nil {
					t.Fatal(err)
				}
				got, err := LabelPartitionedOnPlatformRun(single, w.new(), instant, RunOpts{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("trial %d %s instant=%v: one-shard run diverged from the reference:\n got %+v\nwant %+v",
						trial, w.name, instant, got, want)
				}
			}
		}
	}
}

// TestLabelOnPlatformIncrementalEquivalence: with a perfect crowd, the
// driver's incremental crowdsourceable scan changes no observable output —
// on one shard it reproduces the from-scratch reference's whole trace,
// publish sizes and availability included, for every worker and both
// decision modes.
func TestLabelOnPlatformIncrementalEquivalence(t *testing.T) {
	checkOneShardMatchesReference(t, referenceCases(rand.New(rand.NewSource(83)), 20, false))
}

// TestLabelOnPlatformIncrementalDeduceEquivalence: with a flaky crowd,
// whose wrong answers spread to the pairs deduced from them, the
// incremental deducer changes no observable output — on one shard the
// driver reproduces the reference's full deduction sweep, trace for trace.
func TestLabelOnPlatformIncrementalDeduceEquivalence(t *testing.T) {
	checkOneShardMatchesReference(t, referenceCases(rand.New(rand.NewSource(89)), 20, true))
}

// TestShardedPlatformMatchesUnsharded pins the driver on the component
// partition against the unsharded reference on labels, crowdsourced flags,
// counters, and conflicts, for perfect and flaky crowds, plain and instant
// decisions, and every worker whose answers do not depend on the
// partition. (Publish traces legitimately differ: the partitioned driver
// publishes per component.)
func TestShardedPlatformMatchesUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, flaky := range []bool{false, true} {
		for trial, c := range referenceCases(rng, 20, flaky) {
			comps, err := BuildPartition(c.numObjects, c.order, TriageBands{})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range c.workers {
				if !w.partitionFree {
					continue
				}
				for _, instant := range []bool{false, true} {
					want, err := referencePlatform(c.numObjects, c.order, w.new(), instant)
					if err != nil {
						t.Fatal(err)
					}
					got, err := LabelPartitionedOnPlatformRun(comps, w.new(), instant, RunOpts{})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want.Result, got.Result) || want.Conflicts != got.Conflicts {
						t.Fatalf("trial %d flaky=%v %s instant=%v: %d-component run diverged: crowdsourced %d vs %d, deduced %d vs %d, conflicts %d vs %d",
							trial, flaky, w.name, instant, len(comps.Shards),
							got.NumCrowdsourced, want.NumCrowdsourced,
							got.NumDeduced, want.NumDeduced,
							got.Conflicts, want.Conflicts)
					}
				}
			}
		}
	}
}

// publishRecorder wraps a Platform and keeps a copy of every Publish
// batch, pairs in order.
type publishRecorder struct {
	Platform
	batches [][]Pair
}

func (r *publishRecorder) Publish(ps []Pair) {
	r.batches = append(r.batches, append([]Pair(nil), ps...))
	r.Platform.Publish(ps)
}

// denseWorkload draws 8–24 objects in 2–6 entities and 4–8 candidate pairs
// per object, repeats allowed, whose likelihoods ignore the truth: a
// matcher that knows nothing. Crowd answers then keep contradicting the
// order's optimism, so scans roll back often and deep.
func denseWorkload(rng *rand.Rand) (numObjects int, order []Pair, truth *TruthOracle) {
	numObjects = 8 + rng.Intn(17)
	entity := make([]int32, numObjects)
	numEntities := 2 + rng.Intn(5)
	for i := range entity {
		entity[i] = int32(rng.Intn(numEntities))
	}
	numPairs := numObjects * (4 + rng.Intn(5))
	pairs := make([]Pair, 0, numPairs)
	for len(pairs) < numPairs {
		a, b := int32(rng.Intn(numObjects)), int32(rng.Intn(numObjects))
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		pairs = append(pairs, Pair{ID: len(pairs), A: a, B: b, Likelihood: rng.Float64()})
	}
	return numObjects, ExpectedOrder(pairs), &TruthOracle{Entity: entity}
}

// FuzzPlatformMatchesReference draws a workload, sparse and fractured
// into components (randomShardWorkload) or dense (denseWorkload), in
// expected or random order; a perfect or flaky crowd;
// first-in-first-out, lowest-likelihood-first or seeded-random workers; and
// instant decisions on or off. On one shard the driver must reproduce
// referencePlatform's whole trace and every Publish batch, pairs in order;
// on the component partition it must reproduce every per-pair outcome,
// counter and conflict. The batch-oracle arm runs the same crowd through
// the round adapter: on one shard it must reproduce referenceParallel's
// labels, crowd flags, round sizes and conflicts, and so must the
// component partition at a drawn k under a drawn router.
//
// mode's bits: 1 random order, 2 flaky crowd, 4 instant decisions, 8 and
// 16 the worker policy (their value mod 3), 32 a dense workload.
func FuzzPlatformMatchesReference(f *testing.F) {
	for mode := uint8(0); mode < 64; mode++ {
		f.Add(int64(mode)*7919+1, mode)
	}
	// Dense instant-decision runs in which a deduced label is matching
	// where the scan had deduced non-matching, and that flip changes a
	// later publish: a driver that does not report deduced labels to the
	// scan fails them. Fuzzing finds such runs within seconds; these keep
	// them in every plain test run.
	f.Add(int64(28), uint8(53))
	f.Add(int64(59), uint8(38))
	f.Fuzz(func(t *testing.T, seed int64, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		var numObjects int
		var order []Pair
		var truth *TruthOracle
		if mode&32 != 0 {
			numObjects, order, truth = denseWorkload(rng)
		} else {
			numObjects, order, truth = randomShardWorkload(rng)
		}
		if mode&1 != 0 {
			order = RandomOrder(order, rng)
		}
		var oracle Oracle = truth
		if mode&2 != 0 {
			oracle = flakyOracle{truth}
		}
		instant := mode&4 != 0
		rank := rng.Perm(len(order))
		var newPlatform func() Platform
		switch (mode >> 3 & 3) % 3 {
		case 0:
			newPlatform = func() Platform { return NewSimPlatform(oracle, SelectFIFO, nil) }
		case 1:
			newPlatform = func() Platform { return NewSimPlatform(oracle, SelectAscendingLikelihood, nil) }
		default:
			newPlatform = func() Platform { return &rankedPlatform{oracle: oracle, rank: rank} }
		}

		wantPf := &publishRecorder{Platform: newPlatform()}
		want, err := referencePlatform(numObjects, order, wantPf, instant)
		if err != nil {
			t.Fatal(err)
		}
		single, err := SinglePartition(numObjects, order)
		if err != nil {
			t.Fatal(err)
		}
		gotPf := &publishRecorder{Platform: newPlatform()}
		got, err := LabelPartitionedOnPlatformRun(single, gotPf, instant, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("one-shard run diverged from the reference:\n got %+v\nwant %+v", got, want)
		}
		if !reflect.DeepEqual(wantPf.batches, gotPf.batches) {
			t.Fatalf("one-shard publishes diverged from the reference:\n got %v\nwant %v", gotPf.batches, wantPf.batches)
		}

		comps, err := BuildPartition(numObjects, order, TriageBands{})
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := LabelPartitionedOnPlatformRun(comps, newPlatform(), instant, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Result, sharded.Result) || want.Conflicts != sharded.Conflicts {
			t.Fatalf("%d-component run diverged: crowdsourced %d vs %d, deduced %d vs %d, conflicts %d vs %d",
				len(comps.Shards), sharded.NumCrowdsourced, want.NumCrowdsourced,
				sharded.NumDeduced, want.NumDeduced, sharded.Conflicts, want.Conflicts)
		}

		wantPar, err := referenceParallel(numObjects, order, Batched(oracle))
		if err != nil {
			t.Fatal(err)
		}
		gotPar, err := labelRounds(single, Batched(oracle), 1, false, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameParallel(wantPar, gotPar) {
			t.Fatalf("round adapter diverged from the parallel reference:\n got %+v\nwant %+v", gotPar, wantPar)
		}
		k, balanced := 1+rng.Intn(3), rng.Intn(2) == 1
		shardedPar, err := labelRounds(comps, Batched(oracle), k, balanced, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameParallel(wantPar, shardedPar) {
			t.Fatalf("round adapter on %d components (k=%d, balanced=%v) diverged: crowdsourced %d vs %d, rounds %v vs %v, conflicts %d vs %d",
				len(comps.Shards), k, balanced, shardedPar.NumCrowdsourced, wantPar.NumCrowdsourced,
				shardedPar.RoundSizes, wantPar.RoundSizes, shardedPar.Conflicts, wantPar.Conflicts)
		}
	})
}
