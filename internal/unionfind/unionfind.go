// Package unionfind implements a disjoint-set forest with union by size and
// path halving, the substrate the paper's ClusterGraph uses to merge matching
// objects into clusters (Tarjan, J. ACM 1975; cited as [20] in the paper).
//
// All operations are amortized near-constant (inverse Ackermann). The zero
// value is not usable; construct with New.
//
// The forest also supports a rollback variant for backtracking search
// (world enumeration, checkpointed scans): after BeginUndoLog, unions AND
// path-halving pointer updates are recorded in one LIFO undo log, so
// UndoUnion can revert merges exactly. Journaling the halvings keeps path
// compression on in rollback mode: a halved pointer that skips a root is
// only unsafe if that root's union is later undone, and such a halving is
// necessarily recorded after the union, so the LIFO replay restores it
// first. Finds therefore stay amortized near-constant in both modes.
package unionfind

import "fmt"

// undoEntry records one parent-pointer overwrite. A union is encoded as
// parent == node (the absorbed root pointed at itself before the union)
// and additionally restores the size and set counters on undo; any other
// entry is a journaled path halving.
type undoEntry struct {
	node, parent int32
}

// UF is a disjoint-set forest over the dense universe [0, n).
type UF struct {
	parent []int32
	size   []int32 // size[r] is the cluster size; meaningful only for roots
	sets   int     // current number of disjoint sets

	// undoable switches the forest into rollback mode: unions and path
	// halvings append their inverse to undo.
	undoable bool
	undo     []undoEntry
}

// New returns a forest of n singleton sets labeled 0..n-1.
func New(n int) *UF {
	if n < 0 {
		panic(fmt.Sprintf("unionfind: negative size %d", n))
	}
	u := &UF{
		parent: make([]int32, n),
		size:   make([]int32, n),
		sets:   n,
	}
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.size[i] = 1
	}
	return u
}

// Len returns the size of the universe.
func (u *UF) Len() int { return len(u.parent) }

// Sets returns the current number of disjoint sets.
func (u *UF) Sets() int { return u.sets }

// Find returns the canonical representative of x's set, applying path
// halving as it walks to the root (journaled in rollback mode).
func (u *UF) Find(x int32) int32 {
	if u.undoable {
		for {
			p := u.parent[x]
			if p == x {
				return x
			}
			gp := u.parent[p]
			if gp == p {
				return p
			}
			u.undo = append(u.undo, undoEntry{x, p})
			u.parent[x] = gp
			x = gp
		}
	}
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// BeginUndoLog switches the forest into rollback mode: subsequent unions
// and path halvings are recorded so UndoUnion can revert merges. Reset
// returns the forest to unjournaled mode. Enabling is idempotent and
// never forgets already recorded operations.
func (u *UF) BeginUndoLog() { u.undoable = true }

// UndoUnion reverts the most recently recorded union, first restoring any
// path halvings journaled after it. It panics when no recorded union
// remains.
func (u *UF) UndoUnion() {
	for {
		e := u.undo[len(u.undo)-1]
		u.undo = u.undo[:len(u.undo)-1]
		if e.parent != e.node {
			u.parent[e.node] = e.parent // journaled halving
			continue
		}
		// The union that absorbed e.node: every halving journaled after it
		// has been restored above, so e.node points directly at the
		// surviving root again.
		r := u.parent[e.node]
		u.size[r] -= u.size[e.node]
		u.parent[e.node] = e.node
		u.sets++
		return
	}
}

// Grow extends the universe to n elements, the new ones as singleton sets;
// a no-op when the universe already has n or more. Growing is not
// journaled, so it panics in rollback mode — an undo past the old size
// would corrupt the forest.
func (u *UF) Grow(n int) {
	if n <= len(u.parent) {
		return
	}
	if u.undoable {
		panic("unionfind: Grow in rollback mode")
	}
	for i := len(u.parent); i < n; i++ {
		u.parent = append(u.parent, int32(i))
		u.size = append(u.size, 1)
		u.sets++
	}
}

// Same reports whether x and y are in the same set.
func (u *UF) Same(x, y int32) bool { return u.Find(x) == u.Find(y) }

// SizeOf returns the number of elements in x's set.
func (u *UF) SizeOf(x int32) int32 { return u.size[u.Find(x)] }

// Union merges the sets of x and y. It returns the surviving root, the root
// that was absorbed, and whether a merge happened (false when x and y were
// already in the same set, in which case absorbed == root).
//
// Union by size: the larger set's root survives, keeping trees shallow.
func (u *UF) Union(x, y int32) (root, absorbed int32, merged bool) {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return rx, rx, false
	}
	if u.size[rx] < u.size[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = rx
	u.size[rx] += u.size[ry]
	u.sets--
	if u.undoable {
		u.undo = append(u.undo, undoEntry{ry, ry})
	}
	return rx, ry, true
}

// CloneInto copies u's current partition into dst, which must have the
// same universe size; dst's allocations are reused. It leaves dst in
// compressing mode with an empty undo log.
func (u *UF) CloneInto(dst *UF) {
	if len(dst.parent) != len(u.parent) {
		panic("unionfind: CloneInto size mismatch")
	}
	copy(dst.parent, u.parent)
	copy(dst.size, u.size)
	dst.sets = u.sets
	dst.undoable = false
	dst.undo = dst.undo[:0]
}

// Reset restores the forest to n singleton sets without reallocating,
// returning it to compressing mode and discarding the undo log.
func (u *UF) Reset() {
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.size[i] = 1
	}
	u.sets = len(u.parent)
	u.undoable = false
	u.undo = u.undo[:0]
}

// Clusters groups the universe by set and returns each set's members.
// Members appear in increasing order; cluster order is by smallest member.
// One pass over the objects in index order opens each cluster at its first
// (smallest) member, so the listing is O(n) and needs no sort. Intended for
// tests and reporting, not hot paths.
func (u *UF) Clusters() [][]int32 {
	// slot[r] is one past the index in out of the cluster rooted at r.
	slot := make([]int32, len(u.parent))
	out := make([][]int32, 0, u.sets)
	members := make([]int32, len(u.parent))
	next := int32(0) // start of the next cluster's run in members
	for i := range u.parent {
		r := u.Find(int32(i))
		k := slot[r]
		if k == 0 {
			n := u.size[r]
			out = append(out, members[next:next:next+n])
			next += n
			k = int32(len(out))
			slot[r] = k
		}
		out[k-1] = append(out[k-1], int32(i))
	}
	return out
}
