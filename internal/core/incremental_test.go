package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"crowdjoin/internal/clustergraph"
)

// TestResumableScanMatchesScratch: driven the way the platform driver
// drives it — labels only ever added and each one reported, every returned
// pair immediately marked published — the resumable scan returns exactly
// what a from-scratch Algorithm 3 scan returns minus the published pairs,
// at every step. Answers come in random order from a perfect or a flaky
// crowd, so both dirty rules (a non-matching answer where the scan assumed
// a match, a matching one where it deduced non-matching) fire.
func TestResumableScanMatchesScratch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, pairs, truth := randomInstance(rng, 14, 40)
		order := ExpectedOrder(pairs)
		for pos := range order {
			order[pos].ID = pos // shard coordinates: IDs are positions
		}
		var oracle Oracle = truth
		if seed%2 == 0 {
			oracle = flakyOracle{truth}
		}
		scan := newResumableScan(n, order)
		labels := make([]Label, len(order))
		published := make([]bool, len(order))
		labeled := clustergraph.New(n)
		var outstanding []Pair
		setLabel := func(pos int, l Label) {
			labels[pos] = l
			scan.note(pos, l)
		}
		for step := 0; step < 200; step++ {
			want, err := CrowdsourceablePairs(n, order, labels)
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
			got := scan.scan(labels, published)
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
				published[p.ID] = true
			}
			outstanding = append(outstanding, got...)
			if len(outstanding) == 0 {
				break // everything labeled or deduced
			}
			// Answer a random outstanding pair; first knowledge wins on a
			// conflicting answer, as in the driver.
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
			setLabel(p.ID, l)
			// Deduce from crowd labels, sparing published pairs.
			for _, q := range order {
				if labels[q.ID] != Unlabeled || published[q.ID] {
					continue
				}
				switch labeled.Deduce(q.A, q.B) {
				case clustergraph.DeducedMatching:
					setLabel(q.ID, Matching)
				case clustergraph.DeducedNonMatching:
					setLabel(q.ID, NonMatching)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
