package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"crowdjoin/internal/clustergraph"
)

// TestIncrementalScannerMatchesScratch: driven the way the platform driver
// drives it — labels only ever added, every returned pair immediately
// marked published — the incremental scanner returns exactly what a
// from-scratch Algorithm 3 scan returns, at every step.
func TestIncrementalScannerMatchesScratch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, pairs, truth := randomInstance(rng, 14, 40)
		order := ExpectedOrder(pairs)
		scanner := NewIncrementalScanner(n, order)

		labels := make([]Label, len(order))
		published := make([]bool, len(order))
		// Simulate the instant-decision loop: scan, publish, answer one
		// published pair, deduce, repeat.
		for step := 0; step < 200; step++ {
			want, err := CrowdsourceablePairs(n, order, labels)
			if err != nil {
				return false
			}
			// Scratch reference returns all selected pairs; filter skip.
			var wantUnpublished []Pair
			for _, p := range want {
				if !published[p.ID] {
					wantUnpublished = append(wantUnpublished, p)
				}
			}
			got := scanner.Crowdsourceable(labels, published)
			if len(got) != len(wantUnpublished) {
				return false
			}
			for i := range got {
				if got[i].ID != wantUnpublished[i].ID {
					return false
				}
			}
			for _, p := range got {
				published[p.ID] = true
			}
			// Answer the first published-but-unlabeled pair.
			answered := false
			for _, p := range order {
				if !published[p.ID] || labels[p.ID] != Unlabeled {
					continue
				}
				labels[p.ID] = truth.Label(p)
				answered = true
				break
			}
			if !answered {
				break // everything labeled or deduced
			}
			// Deduce from crowd labels.
			g := clustergraph.New(n)
			for _, q := range order {
				if labels[q.ID] == Unlabeled {
					continue
				}
				g.ForceInsert(q.A, q.B, labels[q.ID] == Matching)
			}
			for _, q := range order {
				if labels[q.ID] != Unlabeled || published[q.ID] {
					continue
				}
				switch g.Deduce(q.A, q.B) {
				case clustergraph.DeducedMatching:
					labels[q.ID] = Matching
				case clustergraph.DeducedNonMatching:
					labels[q.ID] = NonMatching
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
