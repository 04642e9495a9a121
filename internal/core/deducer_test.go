package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"crowdjoin/internal/clustergraph"
)

// TestIncrementalDeducerCoversAllNewDeductions: after every insert, the
// pairs that became deducible (checked by exhaustive comparison of before/
// after deducibility over the whole order) are a subset of the positions
// the deducer reports.
func TestIncrementalDeducerCoversAllNewDeductions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, pairs, truth := randomInstance(rng, 14, 40)
		order := ExpectedOrder(pairs)
		g := clustergraph.New(n)
		d := newIncrementalDeducer(n, order, g)
		deducible := func() map[int]clustergraph.Verdict {
			out := map[int]clustergraph.Verdict{}
			for _, p := range order {
				if v := g.Deduce(p.A, p.B); v != clustergraph.Undeduced {
					out[p.ID] = v
				}
			}
			return out
		}
		before := deducible()
		for trial := 0; trial < 25; trial++ {
			p := order[rng.Intn(len(order))]
			l := truth.Label(p)
			buf, err := d.insert(p.A, p.B, l == Matching, nil)
			if err != nil {
				continue // conflict-free inputs only; skip
			}
			after := deducible()
			reported := map[int]bool{}
			for _, pos := range buf {
				reported[order[pos].ID] = true
			}
			for id, v := range after {
				if bv, ok := before[id]; ok && bv == v {
					continue // not new
				}
				if !reported[id] && id != p.ID {
					return false // newly deducible pair missed
				}
			}
			before = after
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalDeducerConflictLeavesStateUsable: a conflicting insert
// reports ErrConflict without corrupting member tracking.
func TestIncrementalDeducerConflictLeavesStateUsable(t *testing.T) {
	order := []Pair{
		{ID: 0, A: 0, B: 1, Likelihood: 0.9},
		{ID: 1, A: 1, B: 2, Likelihood: 0.8},
		{ID: 2, A: 0, B: 2, Likelihood: 0.7},
	}
	g := clustergraph.New(3)
	d := newIncrementalDeducer(3, order, g)
	if _, err := d.insert(0, 1, true, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.insert(1, 2, true, nil); err != nil {
		t.Fatal(err)
	}
	// 0 and 2 are matching by deduction; a non-matching insert conflicts.
	if _, err := d.insert(0, 2, false, nil); err == nil {
		t.Fatal("conflict not reported")
	}
	// State must still work: inserting the consistent label is a no-op and
	// further queries answer correctly.
	if g.Deduce(0, 2) != clustergraph.DeducedMatching {
		t.Error("graph corrupted by rejected insert")
	}
}
