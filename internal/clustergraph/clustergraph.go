// Package clustergraph implements the paper's ClusterGraph (Section 3.2):
// a graph whose vertices are clusters of matching objects (maintained with
// union-find) and whose edges connect clusters known to be non-matching.
//
// It answers the deduction question of Lemma 1 in amortized near-constant
// time: a pair (o, o') is deducible as matching iff o and o' are in the same
// cluster, deducible as non-matching iff their clusters are joined by an
// edge, and undeducible otherwise (every path between them would need more
// than one non-matching pair).
//
// # Storage layout
//
// Non-matching edges live in compact []int32 edge sets rather than a map
// of maps, so the hot path (Deduce, Insert, ForceInsert) allocates nothing
// in steady state. Small sets are unsorted slices (linear membership scan,
// O(1) append, swap-delete — at most escalateDeg elements, so a couple of
// cache lines); a set whose degree crosses escalateDeg graduates to a
// bitset row with O(1) membership, link, and unlink. Each cluster owns one
// edge set, addressed through a level of indirection (eset maps a cluster
// root to its edge-set id) so that a merge can keep the larger of the two
// sets and drain the smaller into it — true small-into-large —
// independently of which union-find root survives.
//
// # Rollback
//
// Snapshot/Rollback support backtracking: every structural change after a
// Snapshot is recorded in an undo journal, and Rollback replays it
// backwards. Two callers use it: the expected-cost world enumeration of
// Section 4.2 (a search tree), and the platform driver's resumable
// Algorithm-3 scan, which keeps one journaled scan graph for a whole
// session and rolls it back to the first order position a new label
// changes. The underlying union-find switches to its rollback variant
// (path halvings journaled too) at the first Snapshot; Reset switches
// back.
//
// BruteForceDeduce (bruteforce.go) remains the correctness reference; the
// differential tests drive both through randomized insert/snapshot/rollback
// sequences and compare verdicts and counts.
package clustergraph

import (
	"errors"
	"fmt"
	"math/bits"

	"crowdjoin/internal/unionfind"
)

// ErrConflict is returned when an inserted label contradicts the transitive
// closure of previously inserted labels (e.g. non-matching within a cluster).
var ErrConflict = errors.New("clustergraph: label conflicts with transitive closure")

// Verdict is the outcome of a deduction attempt.
type Verdict uint8

const (
	// Undeduced means the pair's label cannot be inferred from the graph.
	Undeduced Verdict = iota
	// DeducedMatching means a path of matching pairs connects the objects.
	DeducedMatching
	// DeducedNonMatching means a path with exactly one non-matching pair
	// connects the objects.
	DeducedNonMatching
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Undeduced:
		return "undeduced"
	case DeducedMatching:
		return "matching"
	case DeducedNonMatching:
		return "non-matching"
	default:
		return fmt.Sprintf("Verdict(%d)", uint8(v))
	}
}

// journal op kinds; the inverse op is applied on Rollback.
const (
	opLink   uint8 = iota // edge (a,b) was added → unlink it
	opUnlink              // edge (a,b) was removed → relink it
	opUnion               // a union was performed → undo it
	opESet                // eset[a] was overwritten → restore b
)

type gop struct {
	kind uint8
	a, b int32
}

// escalateDeg is the degree at which an edge set graduates from an
// unsorted slice to a bitset row: beyond it, the O(degree) membership
// scans and swap-deletes cost more than the row's (n+63)/64 words. Dense
// cluster graphs — late-stage scans where most clusters are pairwise
// non-matching — spend nearly all their edge traffic on such sets, and
// the bitset makes membership, link, unlink, and rollback O(1) there.
const escalateDeg = 16

// Graph is the ClusterGraph over a dense universe of n objects.
// The zero value is not usable; construct with New.
type Graph struct {
	uf *unionfind.UF
	// eset[r] is the id of the edge set owned by the cluster rooted at r;
	// ids are drawn from the object universe (initially eset[i] = i) and
	// only entries for current roots are meaningful.
	eset []int32
	// deg[s] is the number of edge sets adjacent to set s.
	deg []int32
	// adj[s] holds the edge-set ids joined to set s by a non-matching
	// edge (unsorted), for sets below escalateDeg. Symmetric:
	// b ∈ adj[a] ⇔ a ∈ adj[b] (in b's own representation).
	adj [][]int32
	// bits[s] is non-nil once s escalates: bit ns is set iff edge (s, ns)
	// exists. Escalated sets stay escalated until Reset (hysteresis).
	bits  [][]uint64
	words int // words per bitset row: (n+63)/64
	edges int // number of distinct non-matching cluster edges
	// dirty lists, once each, every set id whose edge set became
	// non-empty since the last Reset or CloneInto (listed[s] marks the
	// members), so Reset and CloneInto touch only populated sets instead of
	// walking the whole universe. A set emptied by Rollback stays listed.
	dirty  []int32
	listed []bool
	// rowPool recycles bitset rows shed by CloneInto and Reset.
	rowPool [][]uint64

	// journaling is enabled by the first Snapshot and cleared by Reset;
	// while on, every structural change appends its inverse to journal.
	journaling bool
	journal    []gop
}

// New returns an empty ClusterGraph over objects 0..n-1: every object is a
// singleton cluster and there are no non-matching edges.
func New(n int) *Graph {
	g := &Graph{
		uf:     unionfind.New(n),
		eset:   make([]int32, n),
		deg:    make([]int32, n),
		adj:    make([][]int32, n),
		bits:   make([][]uint64, n),
		words:  (n + 63) / 64,
		listed: make([]bool, n),
	}
	for i := range g.eset {
		g.eset[i] = int32(i)
	}
	return g
}

// Len returns the size of the object universe.
func (g *Graph) Len() int { return g.uf.Len() }

// NumClusters returns the current number of clusters.
func (g *Graph) NumClusters() int { return g.uf.Sets() }

// NumEdges returns the number of distinct non-matching edges between clusters.
func (g *Graph) NumEdges() int { return g.edges }

// SameCluster reports whether objects a and b are in the same cluster, i.e.
// connected by a path of matching pairs.
func (g *Graph) SameCluster(a, b int32) bool { return g.uf.Same(a, b) }

// Root returns the canonical representative of a's cluster. Roots are
// stable only until the next merge involving the cluster.
func (g *Graph) Root(a int32) int32 { return g.uf.Find(a) }

// hasEdgeSets reports whether edge sets sa and sb are joined. Small sets
// are unsorted slices scanned linearly — at most escalateDeg elements, a
// couple of cache lines with no mispredicted halving branches — and large
// sets answer with one bit test.
func (g *Graph) hasEdgeSets(sa, sb int32) bool {
	if row := g.bits[sa]; row != nil {
		return row[uint32(sb)>>6]&(1<<(uint32(sb)&63)) != 0
	}
	if row := g.bits[sb]; row != nil {
		return row[uint32(sa)>>6]&(1<<(uint32(sa)&63)) != 0
	}
	for _, x := range g.adj[sa] {
		if x == sb {
			return true
		}
	}
	return false
}

// HasEdge reports whether the clusters of a and b are joined by a
// non-matching edge. HasEdge(a, b) is false when SameCluster(a, b).
func (g *Graph) HasEdge(a, b int32) bool {
	ra, rb := g.uf.Find(a), g.uf.Find(b)
	if ra == rb {
		return false
	}
	return g.hasEdgeSets(g.eset[ra], g.eset[rb])
}

// Deduce applies Lemma 1 to the pair (a, b).
func (g *Graph) Deduce(a, b int32) Verdict {
	ra, rb := g.uf.Find(a), g.uf.Find(b)
	if ra == rb {
		return DeducedMatching
	}
	if g.hasEdgeSets(g.eset[ra], g.eset[rb]) {
		return DeducedNonMatching
	}
	return Undeduced
}

// RootsInto writes the current root of every object into roots, which must
// have length Len(). Batch deduction loops that probe many pairs between
// mutations can resolve roots with two array loads per pair instead of
// two pointer-chasing Find calls; the snapshot is valid until the next
// mutating operation.
func (g *Graph) RootsInto(roots []int32) {
	if len(roots) != g.Len() {
		panic("clustergraph: RootsInto size mismatch")
	}
	for i := range roots {
		roots[i] = g.uf.Find(int32(i))
	}
}

// DeduceRoots applies Lemma 1 to a pair whose current cluster roots are
// already known (e.g. via RootsInto).
func (g *Graph) DeduceRoots(ra, rb int32) Verdict {
	if ra == rb {
		return DeducedMatching
	}
	if g.hasEdgeSets(g.eset[ra], g.eset[rb]) {
		return DeducedNonMatching
	}
	return Undeduced
}

// escalate converts set s from a slice to a bitset row.
func (g *Graph) escalate(s int32) {
	row := g.newRow()
	for _, v := range g.adj[s] {
		row[uint32(v)>>6] |= 1 << (uint32(v) & 63)
	}
	g.bits[s] = row
	g.adj[s] = g.adj[s][:0]
}

// newRow returns a zeroed bitset row, recycling pooled ones.
func (g *Graph) newRow() []uint64 {
	if n := len(g.rowPool); n > 0 {
		row := g.rowPool[n-1]
		g.rowPool = g.rowPool[:n-1]
		return row
	}
	return make([]uint64, g.words)
}

// addHalf records v in s's edge set; callers guarantee v is absent.
func (g *Graph) addHalf(s, v int32) {
	if row := g.bits[s]; row != nil {
		row[uint32(v)>>6] |= 1 << (uint32(v) & 63)
	} else {
		if g.deg[s] == 0 && !g.listed[s] {
			g.listed[s] = true
			g.dirty = append(g.dirty, s)
		}
		g.adj[s] = append(g.adj[s], v)
		if len(g.adj[s]) > escalateDeg {
			g.escalate(s)
		}
	}
	g.deg[s]++
}

// delHalf removes v from s's edge set (swap-delete; sets are unsorted).
func (g *Graph) delHalf(s, v int32) {
	if row := g.bits[s]; row != nil {
		row[uint32(v)>>6] &^= 1 << (uint32(v) & 63)
	} else {
		a := g.adj[s]
		for i, x := range a {
			if x == v {
				a[i] = a[len(a)-1]
				g.adj[s] = a[:len(a)-1]
				g.deg[s]--
				return
			}
		}
		panic("clustergraph: removing absent edge")
	}
	g.deg[s]--
}

// rawLink and rawUnlink mutate the symmetric edge (sa, sb) without
// journaling; link/unlink wrap them, and Rollback applies them directly
// as the inverses of journaled ops.
func (g *Graph) rawLink(sa, sb int32) {
	g.addHalf(sa, sb)
	g.addHalf(sb, sa)
	g.edges++
}

func (g *Graph) rawUnlink(sa, sb int32) {
	g.delHalf(sa, sb)
	g.delHalf(sb, sa)
	g.edges--
}

// link adds the edge (sa, sb) between two edge sets.
func (g *Graph) link(sa, sb int32) {
	g.rawLink(sa, sb)
	if g.journaling {
		g.journal = append(g.journal, gop{opLink, sa, sb})
	}
}

// unlink removes the edge (sa, sb) between two edge sets.
func (g *Graph) unlink(sa, sb int32) {
	g.rawUnlink(sa, sb)
	if g.journaling {
		g.journal = append(g.journal, gop{opUnlink, sa, sb})
	}
}

// merge unions the clusters rooted at ra and rb (distinct, with no direct
// edge between them) and combines their edge sets small-into-large.
func (g *Graph) merge(ra, rb int32) {
	sa, sb := g.eset[ra], g.eset[rb]
	root, _, _ := g.uf.Union(ra, rb)
	if g.journaling {
		g.journal = append(g.journal, gop{opUnion, 0, 0})
	}
	// Keep the larger edge set, drain the smaller into it. repoint checks
	// for the self edge — an edge between the two merged clusters would be
	// a conflict, and both insert paths rule it out before merging — and
	// collapses edges that now coincide.
	keep, drain := sa, sb
	if g.deg[drain] > g.deg[keep] {
		keep, drain = drain, keep
	}
	repoint := func(ns int32) {
		g.unlink(drain, ns)
		if ns == keep {
			panic("clustergraph: self edge after merge")
		}
		if !g.hasEdgeSets(keep, ns) {
			g.link(keep, ns)
		}
	}
	if row := g.bits[drain]; row != nil {
		// Single sweep: unlink only ever clears bits in this row, so each
		// word is visited once instead of rescanning from word 0 per edge.
		for w := range row {
			for row[w] != 0 {
				repoint(int32(w<<6 + bits.TrailingZeros64(row[w])))
			}
		}
	} else {
		// Draining the front keeps delHalf's membership scan O(1).
		for len(g.adj[drain]) > 0 {
			repoint(g.adj[drain][0])
		}
	}
	if g.eset[root] != keep {
		if g.journaling {
			g.journal = append(g.journal, gop{opESet, root, g.eset[root]})
		}
		g.eset[root] = keep
	}
}

// InsertMatching records that a and b are matching, merging their clusters
// and their non-matching edge sets.
//
// It returns ErrConflict when the graph already implies a ≠ b; the graph is
// left unchanged in that case.
func (g *Graph) InsertMatching(a, b int32) error {
	ra, rb := g.uf.Find(a), g.uf.Find(b)
	if ra == rb {
		return nil // already implied
	}
	if g.hasEdgeSets(g.eset[ra], g.eset[rb]) {
		return fmt.Errorf("%w: objects %d and %d are non-matching by deduction", ErrConflict, a, b)
	}
	g.merge(ra, rb)
	return nil
}

// InsertNonMatching records that a and b are non-matching, adding an edge
// between their clusters.
//
// It returns ErrConflict when the graph already implies a = b; the graph is
// left unchanged in that case.
func (g *Graph) InsertNonMatching(a, b int32) error {
	ra, rb := g.uf.Find(a), g.uf.Find(b)
	if ra == rb {
		return fmt.Errorf("%w: objects %d and %d are matching by deduction", ErrConflict, a, b)
	}
	sa, sb := g.eset[ra], g.eset[rb]
	if g.hasEdgeSets(sa, sb) {
		return nil // already implied
	}
	g.link(sa, sb)
	return nil
}

// Insert records a labeled pair: matching when matching is true, otherwise
// non-matching.
func (g *Graph) Insert(a, b int32, matching bool) error {
	if matching {
		return g.InsertMatching(a, b)
	}
	return g.InsertNonMatching(a, b)
}

// ForceInsert records a pair under minimum-non-matching-count semantics
// instead of strict consistency. It is the insert Algorithm 3's optimistic
// scan needs: there, unlabeled pairs are assumed matching, so actual labels
// can contradict assumed merges, and the graph must keep answering "what is
// the minimum number of non-matching pairs on any path" correctly:
//
//   - a non-matching pair inside a cluster is ignored — a zero-non-matching
//     path already connects its objects, so the edge can never lie on a
//     minimal path;
//   - a matching pair across an existing non-matching edge merges the
//     clusters and drops that edge, which has become redundant the same way.
//
// With these rules Deduce returns exactly min(#non-matching) ∈ {0, 1, ≥2}
// over paths of the inserted multigraph.
func (g *Graph) ForceInsert(a, b int32, matching bool) {
	ra, rb := g.uf.Find(a), g.uf.Find(b)
	if ra == rb {
		return // matching: implied; non-matching: redundant edge, ignore
	}
	sa, sb := g.eset[ra], g.eset[rb]
	if !matching {
		if !g.hasEdgeSets(sa, sb) {
			g.link(sa, sb)
		}
		return
	}
	if g.hasEdgeSets(sa, sb) {
		// Drop the direct edge before merging; the drain re-points the
		// remaining edges, which all lead to third clusters.
		g.unlink(sa, sb)
	}
	g.merge(ra, rb)
}

// Assume is the fused per-pair step of Algorithm 3's optimistic scan:
// it deduces (a, b) and, when undeduced, force-inserts the pair as
// matching — sharing the root lookups and the edge-set probe between the
// deduction and the insert, which Deduce-then-ForceInsert would each
// repeat. It returns the pair's verdict before the insert.
func (g *Graph) Assume(a, b int32) Verdict {
	ra, rb := g.uf.Find(a), g.uf.Find(b)
	if ra == rb {
		return DeducedMatching
	}
	if g.hasEdgeSets(g.eset[ra], g.eset[rb]) {
		return DeducedNonMatching
	}
	g.merge(ra, rb)
	return Undeduced
}

// Mark identifies a graph state for Rollback. Marks are only valid on the
// graph that issued them, and only until a Rollback to an earlier mark or a
// Reset.
type Mark int

// Snapshot records the current state and returns a mark Rollback can
// restore. The first Snapshot switches the graph (and its union-find) into
// rollback mode until Reset: subsequent structural changes, and the
// union-find's path halvings, are journaled. Snapshots nest: rolling back
// to an outer mark discards inner ones.
func (g *Graph) Snapshot() Mark {
	if !g.journaling {
		g.journaling = true
		g.uf.BeginUndoLog()
	}
	return Mark(len(g.journal))
}

// Rollback restores the state recorded by Snapshot, undoing every insert
// and merge performed since in reverse order. Cost is proportional to the
// number of structural changes being undone.
func (g *Graph) Rollback(m Mark) {
	for len(g.journal) > int(m) {
		op := g.journal[len(g.journal)-1]
		g.journal = g.journal[:len(g.journal)-1]
		switch op.kind {
		case opLink:
			g.rawUnlink(op.a, op.b)
		case opUnlink:
			g.rawLink(op.a, op.b)
		case opUnion:
			g.uf.UndoUnion()
		case opESet:
			g.eset[op.a] = op.b
		}
	}
}

// ClusterSize returns the number of objects in a's cluster.
func (g *Graph) ClusterSize(a int32) int32 { return g.uf.SizeOf(a) }

// Clusters returns the current clusters; see unionfind.UF.Clusters for
// ordering guarantees. Intended for reporting and tests.
func (g *Graph) Clusters() [][]int32 { return g.uf.Clusters() }

// CloneInto copies g's current state into dst, which must cover the same
// universe; dst's allocations are reused where possible and its rollback
// history, if any, is discarded. It returns dst. Only the populated edge
// sets of the two graphs (their dirty lists) are touched, so the cost is
// O(n) array copies plus O(live edges), independent of how many sets were
// ever populated before.
func (g *Graph) CloneInto(dst *Graph) *Graph {
	if dst.Len() != g.Len() {
		panic("clustergraph: CloneInto size mismatch")
	}
	g.uf.CloneInto(dst.uf)
	copy(dst.eset, g.eset)
	copy(dst.deg, g.deg)
	for _, sid := range dst.dirty {
		dst.adj[sid] = dst.adj[sid][:0]
		dst.listed[sid] = false
		if row := dst.bits[sid]; row != nil {
			clear(row)
			dst.rowPool = append(dst.rowPool, row)
			dst.bits[sid] = nil
		}
	}
	dst.dirty = append(dst.dirty[:0], g.dirty...)
	for _, sid := range g.dirty {
		dst.listed[sid] = true
		dst.adj[sid] = append(dst.adj[sid][:0], g.adj[sid]...)
		if row := g.bits[sid]; row != nil {
			if dst.bits[sid] == nil {
				dst.bits[sid] = dst.newRow()
			}
			copy(dst.bits[sid], row)
		}
	}
	dst.edges = g.edges
	dst.journaling = false
	dst.journal = dst.journal[:0]
	return dst
}

// Reset restores the graph to n singleton clusters with no edges, retaining
// allocated capacity (slices, pooled bitset rows) so a warm graph resets
// without allocating.
func (g *Graph) Reset() {
	g.uf.Reset()
	for _, sid := range g.dirty {
		g.adj[sid] = g.adj[sid][:0]
		g.deg[sid] = 0
		g.listed[sid] = false
		if row := g.bits[sid]; row != nil {
			clear(row)
			g.rowPool = append(g.rowPool, row)
			g.bits[sid] = nil
		}
	}
	g.dirty = g.dirty[:0]
	for i := range g.eset {
		g.eset[i] = int32(i)
	}
	g.edges = 0
	g.journaling = false
	g.journal = g.journal[:0]
}
