package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"crowdjoin/internal/clustergraph"
)

// TestResumableScanMatchesScratch: driven the way the platform driver
// drives it — labels only ever added and each one reported, every returned
// pair published — the resumable scan returns exactly
// what a from-scratch Algorithm 3 scan returns minus the published pairs,
// at every step. Answers come in random order from a perfect or a flaky
// crowd, so both dirty rules (a non-matching answer where the scan assumed
// a match, a matching one where it deduced non-matching) fire.
//
// Instant mode (mode 0) deduces after every answer, outside the scan. In
// the drained-round mode (1) the crowd answers every outstanding pair
// before the next scan, and the scan itself deduces from the crowd-label
// graph, as plain mode runs it: it must deduce exactly the labels a full
// sweep would, report exactly those positions, and then select what a
// from-scratch scan selects. Mode 2 has the scan deduce after every
// single answer, while other pairs are still out: on dense workloads a
// deduction before the dirty position then flips what the scan did there
// (at a drain it cannot). Workloads are dense ones whose likelihoods
// ignore the truth in mode 2, and half the time in the others; sparse
// random instances otherwise.
func TestResumableScanMatchesScratch(t *testing.T) {
	f := func(seed int64, mode uint8) bool {
		fused, drained := mode%3 != 0, mode%3 == 1
		rng := rand.New(rand.NewSource(seed))
		n, order, truth := denseWorkload(rng)
		if mode%3 != 2 && mode&8 == 0 {
			var pairs []Pair
			n, pairs, truth = randomInstance(rng, 14, 40)
			order = ExpectedOrder(pairs)
		}
		for pos := range order {
			order[pos].ID = pos // shard coordinates: IDs are positions
		}
		var oracle Oracle = truth
		if seed%2 == 0 {
			oracle = flakyOracle{truth}
		}
		scan := newResumableScan(n, order, order)
		labels := make([]Label, len(order))
		published := make([]bool, len(order))
		labeled := clustergraph.New(n)
		var outstanding []Pair
		// sweep deduces every unlabeled, unpublished pair from the crowd
		// labels into into, reporting each label to the scan when note is
		// set, and returns the deduced positions.
		sweep := func(into []Label, note bool) []int32 {
			var deduced []int32
			for _, q := range order {
				if into[q.ID] != Unlabeled || published[q.ID] {
					continue
				}
				switch labeled.Deduce(q.A, q.B) {
				case clustergraph.DeducedMatching:
					into[q.ID] = Matching
				case clustergraph.DeducedNonMatching:
					into[q.ID] = NonMatching
				default:
					continue
				}
				deduced = append(deduced, int32(q.ID))
				if note {
					scan.note(q.ID, into[q.ID])
				}
			}
			return deduced
		}
		for step := 0; step < 200; step++ {
			var crowd *clustergraph.Graph
			wantLabels := labels
			var wantDeduced []int32
			if fused {
				crowd = labeled
				wantLabels = append([]Label(nil), labels...)
				wantDeduced = sweep(wantLabels, false)
			}
			want, err := CrowdsourceablePairs(n, order, wantLabels)
			if err != nil {
				t.Error(err)
				return false
			}
			var wantUnpublished []Pair
			for _, p := range want {
				if !published[p.ID] {
					wantUnpublished = append(wantUnpublished, p)
				}
			}
			got, deduced := scan.scan(labels, published, crowd)
			if fused && (!reflect.DeepEqual(labels, wantLabels) || len(deduced) != len(wantDeduced) ||
				len(deduced) > 0 && !reflect.DeepEqual(deduced, wantDeduced)) {
				t.Errorf("seed %d step %d: scan deduced %v, want %v", seed, step, deduced, wantDeduced)
				return false
			}
			if len(got) != len(wantUnpublished) {
				t.Errorf("seed %d step %d: scan returned %v, want %v", seed, step, got, wantUnpublished)
				return false
			}
			for i := range got {
				if got[i].ID != wantUnpublished[i].ID {
					t.Errorf("seed %d step %d: scan returned %v, want %v", seed, step, got, wantUnpublished)
					return false
				}
			}
			for _, p := range got {
				if !published[p.ID] {
					t.Errorf("seed %d step %d: scan returned %v without marking it published", seed, step, p)
					return false
				}
			}
			outstanding = append(outstanding, got...)
			if len(outstanding) == 0 {
				break // everything labeled or deduced
			}
			// Answer a random outstanding pair, or in drained-round mode
			// all of them in random order; first knowledge wins on a
			// conflicting answer, as in the driver.
			answers := 1
			if drained {
				answers = len(outstanding)
			}
			for ; answers > 0; answers-- {
				i := rng.Intn(len(outstanding))
				p := outstanding[i]
				outstanding = append(outstanding[:i], outstanding[i+1:]...)
				l := oracle.Label(p)
				if err := labeled.Insert(p.A, p.B, l == Matching); err != nil {
					if !errors.Is(err, clustergraph.ErrConflict) {
						t.Error(err)
						return false
					}
					if labeled.Deduce(p.A, p.B) == clustergraph.DeducedMatching {
						l = Matching
					} else {
						l = NonMatching
					}
				}
				labels[p.ID] = l
				scan.note(p.ID, l)
			}
			if !fused {
				sweep(labels, true) // instant mode: deduce after the answer, sparing published pairs
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
}
