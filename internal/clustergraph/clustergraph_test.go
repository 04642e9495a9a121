package clustergraph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustInsert(t *testing.T, g *Graph, a, b int32, matching bool) {
	t.Helper()
	if err := g.Insert(a, b, matching); err != nil {
		t.Fatalf("Insert(%d,%d,%v): %v", a, b, matching, err)
	}
}

// TestPaperExample1 reproduces Example 1 / Figure 2 of the paper: seven
// labeled pairs over o1..o7 (0-indexed here), then three deduction queries.
func TestPaperExample1(t *testing.T) {
	g := New(7)
	// Matching: (o1,o2), (o3,o4), (o4,o5).
	mustInsert(t, g, 0, 1, true)
	mustInsert(t, g, 2, 3, true)
	mustInsert(t, g, 3, 4, true)
	// Non-matching: (o1,o6), (o2,o3), (o3,o7), (o5,o6).
	mustInsert(t, g, 0, 5, false)
	mustInsert(t, g, 1, 2, false)
	mustInsert(t, g, 2, 6, false)
	mustInsert(t, g, 4, 5, false)

	if got := g.Deduce(2, 4); got != DeducedMatching {
		t.Errorf("(o3,o5) = %v, want matching (path o3→o4→o5)", got)
	}
	if got := g.Deduce(4, 6); got != DeducedNonMatching {
		t.Errorf("(o5,o7) = %v, want non-matching (path o5→o4→o3→o7)", got)
	}
	if got := g.Deduce(0, 6); got != Undeduced {
		t.Errorf("(o1,o7) = %v, want undeduced (all paths have ≥2 non-matching pairs)", got)
	}
}

// TestPaperExample3 reproduces Example 3 / Figure 6: after labeling the
// first seven pairs of the running example, p8 = (o5,o6) is deduced
// non-matching. Objects are 0-indexed.
func TestPaperExample3(t *testing.T) {
	g := New(6)
	mustInsert(t, g, 0, 1, true)  // p1 (o1,o2) M
	mustInsert(t, g, 1, 2, true)  // p2 (o2,o3) M
	mustInsert(t, g, 0, 5, false) // p3 (o1,o6) N
	mustInsert(t, g, 0, 2, true)  // p4 (o1,o3) M (deduced in the paper; inserting is a no-op)
	mustInsert(t, g, 3, 4, true)  // p5 (o4,o5) M
	mustInsert(t, g, 3, 5, false) // p6 (o4,o6) N
	mustInsert(t, g, 1, 3, false) // p7 (o2,o4) N

	if got, want := g.NumClusters(), 3; got != want {
		t.Errorf("NumClusters = %d, want %d ({o1,o2,o3},{o4,o5},{o6})", got, want)
	}
	if got, want := g.NumEdges(), 3; got != want {
		t.Errorf("NumEdges = %d, want %d", got, want)
	}
	if got := g.Deduce(4, 5); got != DeducedNonMatching {
		t.Errorf("p8=(o5,o6) = %v, want non-matching", got)
	}
}

func TestDeduceEmpty(t *testing.T) {
	g := New(3)
	if got := g.Deduce(0, 1); got != Undeduced {
		t.Errorf("empty graph Deduce = %v, want undeduced", got)
	}
}

func TestPositiveTransitivity(t *testing.T) {
	g := New(4)
	mustInsert(t, g, 0, 1, true)
	mustInsert(t, g, 1, 2, true)
	mustInsert(t, g, 2, 3, true)
	if got := g.Deduce(0, 3); got != DeducedMatching {
		t.Errorf("chain of matches: Deduce(0,3) = %v, want matching", got)
	}
	if g.ClusterSize(0) != 4 {
		t.Errorf("ClusterSize = %d, want 4", g.ClusterSize(0))
	}
}

func TestNegativeTransitivity(t *testing.T) {
	g := New(3)
	mustInsert(t, g, 0, 1, true)
	mustInsert(t, g, 1, 2, false)
	if got := g.Deduce(0, 2); got != DeducedNonMatching {
		t.Errorf("Deduce(0,2) = %v, want non-matching", got)
	}
}

func TestTwoNonMatchingNotDeducible(t *testing.T) {
	g := New(3)
	mustInsert(t, g, 0, 1, false)
	mustInsert(t, g, 1, 2, false)
	if got := g.Deduce(0, 2); got != Undeduced {
		t.Errorf("Deduce(0,2) = %v, want undeduced (two non-matching hops)", got)
	}
}

func TestConflictNonMatchingInsideCluster(t *testing.T) {
	g := New(3)
	mustInsert(t, g, 0, 1, true)
	mustInsert(t, g, 1, 2, true)
	err := g.InsertNonMatching(0, 2)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("InsertNonMatching in one cluster: err = %v, want ErrConflict", err)
	}
	// Graph must be unchanged.
	if g.Deduce(0, 2) != DeducedMatching {
		t.Error("conflicting insert mutated the graph")
	}
}

func TestConflictMatchingAcrossEdge(t *testing.T) {
	g := New(4)
	mustInsert(t, g, 0, 1, true)
	mustInsert(t, g, 2, 3, true)
	mustInsert(t, g, 1, 2, false)
	err := g.InsertMatching(0, 3)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("InsertMatching across non-matching edge: err = %v, want ErrConflict", err)
	}
	if g.NumClusters() != 2 {
		t.Error("conflicting insert mutated the graph")
	}
}

func TestRedundantInsertsAreNoOps(t *testing.T) {
	g := New(4)
	mustInsert(t, g, 0, 1, true)
	mustInsert(t, g, 1, 2, true)
	if err := g.InsertMatching(0, 2); err != nil {
		t.Fatalf("redundant matching insert: %v", err)
	}
	mustInsert(t, g, 0, 3, false)
	if err := g.InsertNonMatching(2, 3); err != nil {
		t.Fatalf("redundant non-matching insert: %v", err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1 (redundant edge deduplicated)", g.NumEdges())
	}
}

// TestEdgeMergeDeduplication exercises the edge-collapse path in mergeEdges:
// two clusters each with an edge to a third cluster merge, and the two edges
// must become one.
func TestEdgeMergeDeduplication(t *testing.T) {
	g := New(5)
	mustInsert(t, g, 0, 4, false) // {0}–{4}
	mustInsert(t, g, 1, 4, false) // {1}–{4}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	mustInsert(t, g, 0, 1, true) // merge {0} and {1}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges after merge = %d, want 1", g.NumEdges())
	}
	if got := g.Deduce(0, 4); got != DeducedNonMatching {
		t.Errorf("Deduce(0,4) = %v, want non-matching", got)
	}
	if got := g.Deduce(1, 4); got != DeducedNonMatching {
		t.Errorf("Deduce(1,4) = %v, want non-matching", got)
	}
}

func TestHasEdgeFalseWithinCluster(t *testing.T) {
	g := New(2)
	mustInsert(t, g, 0, 1, true)
	if g.HasEdge(0, 1) {
		t.Error("HasEdge within one cluster must be false")
	}
}

func TestReset(t *testing.T) {
	g := New(4)
	mustInsert(t, g, 0, 1, true)
	mustInsert(t, g, 1, 2, false)
	g.Reset()
	if g.NumClusters() != 4 || g.NumEdges() != 0 {
		t.Fatalf("after Reset: clusters=%d edges=%d, want 4, 0", g.NumClusters(), g.NumEdges())
	}
	if g.Deduce(0, 1) != Undeduced {
		t.Error("Reset did not clear matching state")
	}
}

// randomConsistentPairs builds a random ground-truth partition of n objects
// and returns labeled pairs consistent with it.
func randomConsistentPairs(rng *rand.Rand, n, k int) []LabeledPair {
	entity := make([]int, n)
	numEntities := 1 + rng.Intn(n)
	for i := range entity {
		entity[i] = rng.Intn(numEntities)
	}
	pairs := make([]LabeledPair, 0, k)
	for len(pairs) < k {
		a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
		if a == b {
			continue
		}
		pairs = append(pairs, LabeledPair{A: a, B: b, Matching: entity[a] == entity[b]})
	}
	return pairs
}

// TestQuickAgainstBruteForce checks Graph.Deduce against the brute-force
// path-search reference on random consistent instances, for every pair.
func TestQuickAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(10)
		k := rng.Intn(2 * n)
		labeled := randomConsistentPairs(rng, n, k)
		g := New(n)
		for _, p := range labeled {
			if err := g.Insert(p.A, p.B, p.Matching); err != nil {
				return false // consistent input must never conflict
			}
		}
		for a := int32(0); a < int32(n); a++ {
			for b := a + 1; b < int32(n); b++ {
				if g.Deduce(a, b) != BruteForceDeduce(n, labeled, a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeducedLabelsMatchTruth: on consistent inputs, any deduced label
// agrees with the ground-truth partition that generated the pairs.
func TestQuickDeducedLabelsMatchTruth(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(12)
		entity := make([]int, n)
		numEntities := 1 + rng.Intn(4)
		for i := range entity {
			entity[i] = rng.Intn(numEntities)
		}
		g := New(n)
		for i := 0; i < 3*n; i++ {
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			if a == b {
				continue
			}
			if err := g.Insert(a, b, entity[a] == entity[b]); err != nil {
				return false
			}
		}
		for a := int32(0); a < int32(n); a++ {
			for b := a + 1; b < int32(n); b++ {
				switch g.Deduce(a, b) {
				case DeducedMatching:
					if entity[a] != entity[b] {
						return false
					}
				case DeducedNonMatching:
					if entity[a] == entity[b] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEdgeCountInvariant: edges counted in adj stay symmetric and match
// the NumEdges counter through random merges.
func TestQuickEdgeCountInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(12)
		g := New(n)
		for i := 0; i < 4*n; i++ {
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			if a == b {
				continue
			}
			_ = g.Insert(a, b, rng.Intn(2) == 0) // conflicts allowed, must be rejected cleanly
		}
		// Count distinct undirected edges and confirm symmetry across both
		// edge-set representations (slice and escalated bitset).
		total := 0
		for s := int32(0); s < int32(n); s++ {
			for nb := int32(0); nb < int32(n); nb++ {
				if !g.hasEdgeSets(s, nb) {
					continue
				}
				if !g.hasEdgeSets(nb, s) {
					return false
				}
				if s < nb {
					total++
				}
			}
		}
		return total == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDeduce(b *testing.B) {
	const n = 10000
	rng := rand.New(rand.NewSource(7))
	g := New(n)
	entity := make([]int, n)
	for i := range entity {
		entity[i] = rng.Intn(n / 10)
	}
	for i := 0; i < 5*n; i++ {
		a, c := int32(rng.Intn(n)), int32(rng.Intn(n))
		if a == c {
			continue
		}
		_ = g.Insert(a, c, entity[a] == entity[c])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, c := int32(rng.Intn(n)), int32(rng.Intn(n))
		_ = g.Deduce(a, c)
	}
}

func BenchmarkInsertMatching(b *testing.B) {
	const n = 1 << 16
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := New(n)
		for j := int32(0); j < n-1; j += 2 {
			_ = g.InsertMatching(j, j+1)
		}
	}
}

func TestRootStability(t *testing.T) {
	g := New(4)
	mustInsert(t, g, 0, 1, true)
	if g.Root(0) != g.Root(1) {
		t.Error("roots differ within a cluster")
	}
	if g.Root(2) == g.Root(0) {
		t.Error("distinct clusters share a root")
	}
}

// TestRollbackKeepsDirtyListBounded: an edge set emptied by Rollback stays
// on the dirty list, so repopulating it must not list it again — long
// snapshot/insert/rollback sessions would otherwise grow the list by two
// entries per cycle. Reset must start the list afresh.
func TestRollbackKeepsDirtyListBounded(t *testing.T) {
	const n = 8
	g := New(n)
	rng := rand.New(rand.NewSource(5))
	mustInsert(t, g, 0, 1, true)
	for i := 0; i < 100_000; i++ {
		m := g.Snapshot()
		a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
		if a != b && !g.SameCluster(a, b) {
			mustInsert(t, g, a, b, false)
		}
		if i%3 == 0 {
			g.ForceInsert(int32(rng.Intn(n)), 7, true) // merges drain sets too
		}
		g.Rollback(m)
	}
	if len(g.dirty) > n {
		t.Fatalf("dirty list holds %d entries for %d objects", len(g.dirty), n)
	}
	mustInsert(t, g, 2, 3, false)
	g.Reset()
	g.Snapshot()
	for k := 0; k < 3; k++ {
		m := g.Snapshot()
		mustInsert(t, g, 4, 5, false)
		g.Rollback(m)
	}
	if len(g.dirty) > n {
		t.Fatalf("dirty list holds %d entries for %d objects after Reset", len(g.dirty), n)
	}
	seen := make(map[int32]bool)
	for _, s := range g.dirty {
		if seen[s] {
			t.Fatalf("set %d listed twice: %v", s, g.dirty)
		}
		seen[s] = true
	}
}
