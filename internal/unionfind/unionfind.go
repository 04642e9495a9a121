// Package unionfind implements the disjoint sets under the paper's
// ClusterGraph, the union-find it cites as [20], in its quick-find form:
// every element stores its set's root, so Find is one load, and each set's
// members are linked in a cycle, so Union relabels the smaller set and
// splices the two cycles.
//
// Union by size bounds the relabeling: an element is relabeled only when
// its set at least doubles, so any sequence of unions over n elements
// relabels O(n log n) times. The larger set's root survives (x's on a tie),
// so a root is the same element a union-by-size forest would pick, whatever
// order the finds come in.
//
// Split undoes the latest union still in effect: it unsplices the cycles
// and relabels the absorbed set back, at the cost the union paid. Undoing
// unions in LIFO order is all a backtracking caller (world enumeration, a
// checkpointed scan) needs; Find writes nothing, so there is nothing else
// to undo and no separate rollback mode.
//
// The zero value is not usable; construct with New.
package unionfind

import "fmt"

// UF is a partition of the dense universe [0, n) into disjoint sets.
type UF struct {
	root []int32 // root[x] is the root of x's set
	// next links each set's members in a cycle that, walked from the root,
	// lists the root's own members first and then each absorbed set's, in
	// the order of the unions.
	next []int32
	// last[r] is the final member of root r's walk. Once r is absorbed,
	// last[r] keeps the surviving set's former final member for Split.
	last []int32
	size []int32 // size[r] is the set size; meaningful only for roots
	sets int     // current number of disjoint sets
}

// New returns a partition of n singleton sets labeled 0..n-1.
func New(n int) *UF {
	if n < 0 {
		panic(fmt.Sprintf("unionfind: negative size %d", n))
	}
	u := &UF{
		root: make([]int32, n),
		next: make([]int32, n),
		last: make([]int32, n),
		size: make([]int32, n),
	}
	u.Reset()
	return u
}

// Len returns the size of the universe.
func (u *UF) Len() int { return len(u.root) }

// Sets returns the current number of disjoint sets.
func (u *UF) Sets() int { return u.sets }

// Find returns the root of x's set.
func (u *UF) Find(x int32) int32 { return u.root[x] }

// Next returns the member after x on its set's cycle. Walking from a root
// until the walk returns to it lists the set in union order.
func (u *UF) Next(x int32) int32 { return u.next[x] }

// Grow extends the universe to n elements, the new ones as singleton sets;
// a no-op when the universe already has n or more.
func (u *UF) Grow(n int) {
	for i := int32(len(u.root)); int(i) < n; i++ {
		u.root = append(u.root, i)
		u.next = append(u.next, i)
		u.last = append(u.last, i)
		u.size = append(u.size, 1)
		u.sets++
	}
}

// Same reports whether x and y are in the same set.
func (u *UF) Same(x, y int32) bool { return u.root[x] == u.root[y] }

// SizeOf returns the number of elements in x's set.
func (u *UF) SizeOf(x int32) int32 { return u.size[u.root[x]] }

// Union merges the sets of x and y. It returns the surviving root, the root
// that was absorbed, and whether a merge happened (false when x and y were
// already in the same set, in which case absorbed == root).
func (u *UF) Union(x, y int32) (root, absorbed int32, merged bool) {
	rx, ry := u.root[x], u.root[y]
	if rx == ry {
		return rx, rx, false
	}
	if u.size[rx] < u.size[ry] {
		rx, ry = ry, rx
	}
	u.relabel(ry, rx)
	// Append ry's cycle after rx's last member.
	lx, ly := u.last[rx], u.last[ry]
	u.next[lx], u.next[ly] = ry, rx
	u.last[rx], u.last[ry] = ly, lx
	u.size[rx] += u.size[ry]
	u.sets--
	return rx, ry, true
}

// Split undoes the union that absorbed absorbed into root, which must be
// the latest union still in effect: every later one has been split
// already. It costs the absorbed set's size.
func (u *UF) Split(root, absorbed int32) {
	lx, ly := u.last[absorbed], u.last[root]
	u.next[lx], u.next[ly] = root, absorbed
	u.last[root], u.last[absorbed] = lx, ly
	u.size[root] -= u.size[absorbed]
	u.sets++
	u.relabel(absorbed, absorbed)
}

// relabel points every member of the cycle through r at root.
func (u *UF) relabel(r, root int32) {
	for m := r; ; {
		u.root[m] = root
		if m = u.next[m]; m == r {
			return
		}
	}
}

// Reset restores the universe to singleton sets without reallocating.
func (u *UF) Reset() {
	for i := range u.root {
		u.root[i] = int32(i)
		u.next[i] = int32(i)
		u.last[i] = int32(i)
		u.size[i] = 1
	}
	u.sets = len(u.root)
}

// Clusters groups the universe by set and returns each set's members.
// Members appear in increasing order; cluster order is by smallest member.
// One pass over the objects in index order opens each cluster at its first
// (smallest) member, so the listing is O(n) and needs no sort. Intended for
// tests and reporting, not hot paths.
func (u *UF) Clusters() [][]int32 {
	// slot[r] is one past the index in out of the cluster rooted at r.
	slot := make([]int32, len(u.root))
	out := make([][]int32, 0, u.sets)
	members := make([]int32, len(u.root))
	next := int32(0) // start of the next cluster's run in members
	for i, r := range u.root {
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
