package clustergraph

import (
	"math/rand"
	"reflect"
	"testing"
)

// The differential test drives long randomized operation sequences —
// strict inserts, ForceInserts, snapshots, nested rollbacks and resets —
// through the slice-and-bitset Graph and mirrors them in a plain list of
// labeled pairs, the representation BruteForceDeduce consumes. After bursts of
// operations it cross-checks Deduce verdicts for random queries, the
// cluster and edge counts, the cluster listing and every object's cluster
// size against the reference. Universe sizes push set degrees past
// escalateDeg so both edge-set representations and the escalation boundary
// are exercised, including under rollback.

// modelComponents returns the matching-connectivity components of the
// labeled-pair list, found by a graph search that shares no code with the
// union-find under test: comp[o] is the index of o's component in
// clusters, which lists each component's objects ascending, ordered by
// smallest member (Graph.Clusters' order).
func modelComponents(n int, ops []LabeledPair) (clusters [][]int32, comp []int32) {
	adj := make([][]int32, n)
	for _, p := range ops {
		if p.Matching {
			adj[p.A] = append(adj[p.A], p.B)
			adj[p.B] = append(adj[p.B], p.A)
		}
	}
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	for o := int32(0); int(o) < n; o++ {
		if comp[o] >= 0 {
			continue
		}
		k := int32(len(clusters))
		comp[o] = k
		stack := []int32{o}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range adj[x] {
				if comp[y] < 0 {
					comp[y] = k
					stack = append(stack, y)
				}
			}
		}
		clusters = append(clusters, nil)
	}
	for o := int32(0); int(o) < n; o++ {
		clusters[comp[o]] = append(clusters[comp[o]], o)
	}
	return clusters, comp
}

// modelEdges counts the distinct component pairs joined by at least one
// non-matching pair whose endpoints sit in different components: exactly
// the graph ForceInsert semantics converge to regardless of insert order.
func modelEdges(ops []LabeledPair, comp []int32) int {
	seen := make(map[[2]int32]bool)
	for _, p := range ops {
		ca, cb := comp[p.A], comp[p.B]
		if p.Matching || ca == cb {
			continue
		}
		if ca > cb {
			ca, cb = cb, ca
		}
		seen[[2]int32{ca, cb}] = true
	}
	return len(seen)
}

// modelCounts derives the expected cluster and edge counts from the
// labeled-pair list.
func modelCounts(n int, ops []LabeledPair) (clusters, edges int) {
	cl, comp := modelComponents(n, ops)
	return len(cl), modelEdges(ops, comp)
}

type diffSnapshot struct {
	mark Mark
	ops  int
}

func runDifferentialSequence(t *testing.T, seed int64, n, steps int) (opsDone int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	var ops []LabeledPair // the model: every pair the graph accepted
	var snaps []diffSnapshot

	check := func() {
		clusters, comp := modelComponents(n, ops)
		if g.NumClusters() != len(clusters) {
			t.Fatalf("seed %d after %d ops: NumClusters = %d, want %d", seed, opsDone, g.NumClusters(), len(clusters))
		}
		if want := modelEdges(ops, comp); g.NumEdges() != want {
			t.Fatalf("seed %d after %d ops: NumEdges = %d, want %d", seed, opsDone, g.NumEdges(), want)
		}
		if got := g.Clusters(); !reflect.DeepEqual(got, clusters) {
			t.Fatalf("seed %d after %d ops: Clusters = %v, want %v", seed, opsDone, got, clusters)
		}
		for o := int32(0); int(o) < n; o++ {
			if got, want := g.ClusterSize(o), int32(len(clusters[comp[o]])); got != want {
				t.Fatalf("seed %d after %d ops: ClusterSize(%d) = %d, want %d", seed, opsDone, o, got, want)
			}
		}
		for q := 0; q < 12; q++ {
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			if a == b {
				continue
			}
			if got, want := g.Deduce(a, b), BruteForceDeduce(n, ops, a, b); got != want {
				t.Fatalf("seed %d after %d ops: Deduce(%d,%d) = %v, want %v", seed, opsDone, a, b, got, want)
			}
		}
	}

	for step := 0; step < steps; step++ {
		a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
		for a == b {
			b = int32(rng.Intn(n))
		}
		matching := rng.Intn(2) == 0
		switch r := rng.Intn(100); {
		case r < 40: // strict insert; acceptance must match the reference
			verdict := BruteForceDeduce(n, ops, a, b)
			err := g.Insert(a, b, matching)
			conflicts := (matching && verdict == DeducedNonMatching) ||
				(!matching && verdict == DeducedMatching)
			if conflicts != (err != nil) {
				t.Fatalf("seed %d after %d ops: Insert(%d,%d,%v) err=%v, reference verdict %v", seed, opsDone, a, b, matching, err, verdict)
			}
			if err == nil {
				ops = append(ops, LabeledPair{A: a, B: b, Matching: matching})
			}
			opsDone++
		case r < 75: // ForceInsert always applies
			g.ForceInsert(a, b, matching)
			ops = append(ops, LabeledPair{A: a, B: b, Matching: matching})
			opsDone++
		case r < 88: // snapshot
			snaps = append(snaps, diffSnapshot{mark: g.Snapshot(), ops: len(ops)})
			opsDone++
		case r == 99: // reset to singletons, dropping every snapshot
			g.Reset()
			ops, snaps = ops[:0], snaps[:0]
			opsDone++
		default: // rollback to a random outstanding snapshot
			if len(snaps) == 0 {
				continue
			}
			i := rng.Intn(len(snaps))
			g.Rollback(snaps[i].mark)
			ops = ops[:snaps[i].ops]
			snaps = snaps[:i] // inner snapshots are invalidated
			opsDone++
		}
		if step%8 == 0 {
			check()
		}
	}
	check()
	return opsDone
}

// TestDifferentialRandomOps runs ≥10k randomized operations across seeds
// and universe sizes, comparing the Graph against the brute-force
// reference throughout.
func TestDifferentialRandomOps(t *testing.T) {
	seeds := 16
	steps := 700
	if testing.Short() {
		seeds, steps = 4, 300
	}
	total := 0
	for seed := 0; seed < seeds; seed++ {
		// Alternate small (collision-heavy) and large (escalation-heavy)
		// universes.
		n := 12
		if seed%2 == 1 {
			n = 150
		}
		total += runDifferentialSequence(t, int64(seed), n, steps)
	}
	if !testing.Short() && total < 10000 {
		t.Fatalf("differential sequences performed %d ops, want ≥10000", total)
	}
}

// TestDifferentialDenseEscalation hammers a dense instance where most
// cluster pairs carry non-matching edges, guaranteeing sets cross
// escalateDeg, then merges clusters to force bitset drains and rolls
// everything back.
func TestDifferentialDenseEscalation(t *testing.T) {
	const n = 120
	rng := rand.New(rand.NewSource(99))
	g := New(n)
	var ops []LabeledPair
	m := g.Snapshot()
	// Phase 1: many non-matching edges between singletons.
	for i := 0; i < 2500; i++ {
		a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
		if a == b {
			continue
		}
		g.ForceInsert(a, b, false)
		ops = append(ops, LabeledPair{A: a, B: b, Matching: false})
	}
	// Phase 2: merge down to ~n/6 clusters, draining escalated sets.
	for i := 0; i < n; i++ {
		a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
		if a == b {
			continue
		}
		g.ForceInsert(a, b, true)
		ops = append(ops, LabeledPair{A: a, B: b, Matching: true})
	}
	wantClusters, wantEdges := modelCounts(n, ops)
	if g.NumClusters() != wantClusters || g.NumEdges() != wantEdges {
		t.Fatalf("dense: clusters/edges = %d/%d, want %d/%d", g.NumClusters(), g.NumEdges(), wantClusters, wantEdges)
	}
	for q := 0; q < 300; q++ {
		a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
		if a == b {
			continue
		}
		if got, want := g.Deduce(a, b), BruteForceDeduce(n, ops, a, b); got != want {
			t.Fatalf("dense: Deduce(%d,%d) = %v, want %v", a, b, got, want)
		}
	}
	// Phase 3: roll the whole thing back to the empty graph.
	g.Rollback(m)
	if g.NumClusters() != n || g.NumEdges() != 0 {
		t.Fatalf("after full rollback: clusters=%d edges=%d, want %d, 0", g.NumClusters(), g.NumEdges(), n)
	}
	for q := 0; q < 50; q++ {
		a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
		if a == b {
			continue
		}
		if g.Deduce(a, b) != Undeduced {
			t.Fatalf("after full rollback: Deduce(%d,%d) != undeduced", a, b)
		}
	}
}

// TestSnapshotRollbackNested checks LIFO discipline: rolling back to an
// outer mark undoes everything inner snapshots recorded.
func TestSnapshotRollbackNested(t *testing.T) {
	g := New(8)
	mustInsert(t, g, 0, 1, true)
	outer := g.Snapshot()
	mustInsert(t, g, 2, 3, true)
	inner := g.Snapshot()
	mustInsert(t, g, 1, 2, false)
	if g.Deduce(0, 3) != DeducedNonMatching {
		t.Fatal("setup: (0,3) should be non-matching")
	}
	g.Rollback(inner)
	if g.Deduce(0, 3) != Undeduced {
		t.Error("rollback to inner mark kept the edge")
	}
	if g.Deduce(2, 3) != DeducedMatching {
		t.Error("rollback to inner mark dropped the earlier merge")
	}
	g.Rollback(outer)
	if g.Deduce(2, 3) != Undeduced {
		t.Error("rollback to outer mark kept the inner merge")
	}
	if g.Deduce(0, 1) != DeducedMatching {
		t.Error("rollback to outer mark dropped pre-snapshot state")
	}
}
