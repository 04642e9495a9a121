package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"crowdjoin/internal/clustergraph"
)

// referenceParallel is the from-scratch formulation of LabelParallelRun —
// Algorithm 2 with a full deduction sweep per round and Algorithm 3
// rebuilt from scratch per round — kept here as the correctness reference
// for the checkpointing scanner.
func referenceParallel(numObjects int, order []Pair, oracle BatchOracle) (*ParallelResult, error) {
	if err := ValidatePairs(numObjects, order); err != nil {
		return nil, err
	}
	res := &ParallelResult{Result: *newResult(len(order))}
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

// TestLabelParallelMatchesFromScratch pins the incremental scanner behind
// LabelParallelRun to the from-scratch formulation: batches, deduced labels,
// round sizes, and conflict handling must be identical on randomized
// workloads, with both perfect and flaky (order-independent) crowds and
// across likelihood orders.
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
		got, err := LabelParallelRun(numObjects, order, Batched(oracle), RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: checkpoint scanner diverged from from-scratch:\n got %+v\nwant %+v", trial, got, want)
		}
	}
}
