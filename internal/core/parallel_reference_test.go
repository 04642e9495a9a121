package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"crowdjoin/internal/clustergraph"
)

// labelParallel runs the parallel labeler as a k = 1 Join does: one
// SinglePartition shard, the round adapter over oracle, and the round
// driver in plain mode.
func labelParallel(numObjects int, order []Pair, oracle BatchOracle, ro RunOpts) (*TraceResult, error) {
	pt, err := SinglePartition(numObjects, order)
	if err != nil {
		return nil, err
	}
	return labelRounds(pt, oracle, 1, false, ro)
}

// labelRounds runs the parallel labeler on pt through the round adapter
// with crowd concurrency k, under the balance-aware router when balanced is
// set, and reports the adapter's error over the driver's.
func labelRounds(pt *Partition, oracle BatchOracle, k int, balanced bool, ro RunOpts) (*TraceResult, error) {
	rp := NewRoundPlatform(pt, oracle, k, balanced, ro)
	res, err := LabelPartitionedOnPlatformRun(pt, rp, false, ro)
	if cerr := rp.Close(); cerr != nil && err != nil {
		return nil, cerr
	}
	return res, err
}

// sameParallel reports whether two parallel runs agree on everything
// Algorithm 2 defines: labels, crowd flags, counters, round sizes and
// conflicts.
func sameParallel(a, b *TraceResult) bool {
	return reflect.DeepEqual(a.Result, b.Result) && reflect.DeepEqual(a.RoundSizes, b.RoundSizes) && a.Conflicts == b.Conflicts
}

// referenceParallel is the from-scratch formulation of the parallel
// labeler — Algorithm 2 with a full deduction sweep per round and
// Algorithm 3 rebuilt from scratch per round — kept here as the
// correctness reference for the round driver's resumable scan with its
// drain-time deduction.
func referenceParallel(numObjects int, order []Pair, oracle BatchOracle) (*TraceResult, error) {
	if err := ValidatePairs(numObjects, order); err != nil {
		return nil, err
	}
	res := &TraceResult{Result: *newResult(len(order))}
	labeled := clustergraph.New(numObjects)
	scratch := clustergraph.New(numObjects)
	unlabeled := len(order)
	for unlabeled > 0 {
		// Deduce everything the crowd labels imply (one pass suffices:
		// deduced labels add nothing to the closure).
		for _, p := range order {
			if res.Labels[p.ID] != Unlabeled {
				continue
			}
			switch labeled.Deduce(p.A, p.B) {
			case clustergraph.DeducedMatching:
				res.Labels[p.ID] = Matching
				res.NumDeduced++
				unlabeled--
			case clustergraph.DeducedNonMatching:
				res.Labels[p.ID] = NonMatching
				res.NumDeduced++
				unlabeled--
			}
		}
		if unlabeled == 0 {
			break
		}
		scratch.Reset()
		batch := crowdsourceable(scratch, order, res.Labels, nil)
		if len(batch) == 0 {
			return nil, errors.New("reference parallel stalled")
		}
		answers := oracle.LabelBatch(batch)
		for i, p := range batch {
			l := answers[i]
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
		}
		res.RoundSizes = append(res.RoundSizes, len(batch))
	}
	return res, nil
}

// TestLabelParallelMatchesFromScratch pins the round adapter plus the
// round driver to the from-scratch formulation: deduced labels, crowd
// flags, round sizes, and conflict handling must be identical on
// randomized workloads, with both perfect and flaky (order-independent)
// crowds and across likelihood orders.
func TestLabelParallelMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 120; trial++ {
		numObjects, order, truth := randomShardWorkload(rng)
		if trial%3 == 2 {
			order = RandomOrder(order, rng) // stress beyond the expected order
		}
		var oracle Oracle = truth
		if trial%2 == 1 {
			oracle = flakyOracle{truth}
		}
		want, err := referenceParallel(numObjects, order, Batched(oracle))
		if err != nil {
			t.Fatal(err)
		}
		got, err := labelParallel(numObjects, order, Batched(oracle), RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameParallel(want, got) {
			t.Fatalf("trial %d: round driver diverged from from-scratch:\n got %+v\nwant %+v", trial, got, want)
		}
	}
}
