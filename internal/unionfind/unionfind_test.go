package unionfind

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewSingletons(t *testing.T) {
	u := New(5)
	if got := u.Sets(); got != 5 {
		t.Fatalf("Sets() = %d, want 5", got)
	}
	if got := u.Len(); got != 5 {
		t.Fatalf("Len() = %d, want 5", got)
	}
	for i := int32(0); i < 5; i++ {
		if r := u.Find(i); r != i {
			t.Errorf("Find(%d) = %d, want %d", i, r, i)
		}
		if s := u.SizeOf(i); s != 1 {
			t.Errorf("SizeOf(%d) = %d, want 1", i, s)
		}
	}
}

func TestNewZero(t *testing.T) {
	u := New(0)
	if u.Sets() != 0 || u.Len() != 0 {
		t.Fatalf("empty forest: Sets=%d Len=%d, want 0,0", u.Sets(), u.Len())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestUnionBasic(t *testing.T) {
	u := New(4)
	root, absorbed, merged := u.Union(0, 1)
	if !merged {
		t.Fatal("Union(0,1) reported no merge")
	}
	if root == absorbed {
		t.Fatal("Union(0,1) root == absorbed on a real merge")
	}
	if !u.Same(0, 1) {
		t.Error("0 and 1 should be in the same set")
	}
	if u.Same(0, 2) {
		t.Error("0 and 2 should be in different sets")
	}
	if got := u.Sets(); got != 3 {
		t.Errorf("Sets() = %d, want 3", got)
	}
	if got := u.SizeOf(0); got != 2 {
		t.Errorf("SizeOf(0) = %d, want 2", got)
	}
}

func TestUnionIdempotent(t *testing.T) {
	u := New(3)
	u.Union(0, 1)
	root, absorbed, merged := u.Union(0, 1)
	if merged {
		t.Error("second Union(0,1) reported a merge")
	}
	if root != absorbed {
		t.Errorf("no-op union: root=%d absorbed=%d, want equal", root, absorbed)
	}
	if got := u.Sets(); got != 2 {
		t.Errorf("Sets() = %d, want 2", got)
	}
}

func TestUnionBySize(t *testing.T) {
	u := New(5)
	u.Union(0, 1)
	u.Union(0, 2) // {0,1,2} size 3
	bigRoot := u.Find(0)
	root, _, merged := u.Union(3, 0) // singleton into size-3
	if !merged {
		t.Fatal("expected merge")
	}
	if root != bigRoot {
		t.Errorf("union by size kept root %d, want larger set's root %d", root, bigRoot)
	}
}

func TestTransitiveChain(t *testing.T) {
	const n = 100
	u := New(n)
	for i := int32(0); i < n-1; i++ {
		u.Union(i, i+1)
	}
	if u.Sets() != 1 {
		t.Fatalf("Sets() = %d, want 1", u.Sets())
	}
	if !u.Same(0, n-1) {
		t.Error("chain endpoints not connected")
	}
	if got := u.SizeOf(42); got != n {
		t.Errorf("SizeOf = %d, want %d", got, n)
	}
}

func TestReset(t *testing.T) {
	u := New(4)
	u.Union(0, 1)
	u.Union(2, 3)
	u.Reset()
	if u.Sets() != 4 {
		t.Fatalf("Sets() after Reset = %d, want 4", u.Sets())
	}
	if u.Same(0, 1) || u.Same(2, 3) {
		t.Error("Reset did not separate previously merged sets")
	}
}

func TestClusters(t *testing.T) {
	u := New(6)
	u.Union(0, 2)
	u.Union(2, 4)
	u.Union(1, 5)
	got := u.Clusters()
	want := [][]int32{{0, 2, 4}, {1, 5}, {3}}
	if len(got) != len(want) {
		t.Fatalf("got %d clusters, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("cluster %d = %v, want %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("cluster %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
}

// naiveDSU is an O(n) reference implementation used to cross-check UF.
type naiveDSU struct{ label []int }

func newNaive(n int) *naiveDSU {
	l := make([]int, n)
	for i := range l {
		l[i] = i
	}
	return &naiveDSU{label: l}
}

func (d *naiveDSU) union(a, b int32) {
	la, lb := d.label[a], d.label[b]
	if la == lb {
		return
	}
	for i, l := range d.label {
		if l == lb {
			d.label[i] = la
		}
	}
}

func (d *naiveDSU) same(a, b int32) bool { return d.label[a] == d.label[b] }

func (d *naiveDSU) sets() int {
	seen := map[int]bool{}
	for _, l := range d.label {
		seen[l] = true
	}
	return len(seen)
}

// TestQuickAgainstNaive drives random union/find traces through UF and a
// naive labeling implementation and checks full agreement.
func TestQuickAgainstNaive(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		const n = 24
		rng := rand.New(rand.NewSource(seed))
		u := New(n)
		d := newNaive(n)
		for range opsRaw {
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			u.Union(a, b)
			d.union(a, b)
		}
		if u.Sets() != d.sets() {
			return false
		}
		for a := int32(0); a < n; a++ {
			for b := int32(0); b < n; b++ {
				if u.Same(a, b) != d.same(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSizesSumToN checks that root sizes always partition the universe.
func TestQuickSizesSumToN(t *testing.T) {
	f := func(seed int64) bool {
		const n = 50
		rng := rand.New(rand.NewSource(seed))
		u := New(n)
		for i := 0; i < 40; i++ {
			u.Union(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		roots := map[int32]bool{}
		total := int32(0)
		for i := int32(0); i < n; i++ {
			r := u.Find(i)
			if !roots[r] {
				roots[r] = true
				total += u.SizeOf(r)
			}
		}
		return total == n && len(roots) == u.Sets()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUnionFind(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int32, 1<<14)
	for i := range pairs {
		pairs[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := New(n)
		for _, p := range pairs {
			u.Union(p[0], p[1])
		}
	}
}

func TestCloneInto(t *testing.T) {
	u := New(5)
	u.Union(0, 1)
	u.Union(2, 3)
	dst := New(5)
	dst.Union(0, 4) // pre-existing state must be overwritten
	u.CloneInto(dst)
	if dst.Sets() != u.Sets() {
		t.Fatalf("Sets: dst=%d src=%d", dst.Sets(), u.Sets())
	}
	for a := int32(0); a < 5; a++ {
		for b := int32(0); b < 5; b++ {
			if dst.Same(a, b) != u.Same(a, b) {
				t.Fatalf("Same(%d,%d) differs after CloneInto", a, b)
			}
		}
	}
	// Mutating dst must not affect src.
	dst.Union(0, 2)
	if u.Same(0, 2) {
		t.Error("CloneInto aliases source state")
	}
}

func TestCloneIntoSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CloneInto with mismatched sizes did not panic")
		}
	}()
	New(3).CloneInto(New(4))
}

func TestGrow(t *testing.T) {
	u := New(2)
	u.Union(0, 1)
	u.Grow(5)
	if got, want := u.Len(), 5; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if got, want := u.Sets(), 4; got != want {
		t.Fatalf("Sets = %d, want %d", got, want)
	}
	for i := int32(2); i < 5; i++ {
		if u.SizeOf(i) != 1 {
			t.Fatalf("grown element %d not a singleton", i)
		}
		if u.Same(0, i) {
			t.Fatalf("grown element %d joined to an old set", i)
		}
	}
	if !u.Same(0, 1) {
		t.Fatal("Grow broke an existing union")
	}
	u.Grow(3) // shrinking request: no-op
	if got, want := u.Len(), 5; got != want {
		t.Fatalf("after no-op Grow, Len = %d, want %d", got, want)
	}
	u.Union(1, 4)
	if !u.Same(0, 4) || u.SizeOf(4) != 3 {
		t.Fatal("union across the grown boundary failed")
	}
}

func TestGrowInRollbackModePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Grow in rollback mode did not panic")
		}
	}()
	u := New(2)
	u.BeginUndoLog()
	u.Grow(4)
}

// sortedClusters is the group-then-sort listing Clusters replaced, kept as
// its reference: group by root, then order clusters by smallest member.
func sortedClusters(u *UF) [][]int32 {
	byRoot := make([][]int32, u.Len())
	for i := range byRoot {
		r := u.Find(int32(i))
		byRoot[r] = append(byRoot[r], int32(i))
	}
	out := make([][]int32, 0, u.Sets())
	for _, members := range byRoot {
		if len(members) > 0 {
			out = append(out, members)
		}
	}
	slices.SortFunc(out, func(a, b []int32) int { return int(a[0] - b[0]) })
	return out
}

// TestClustersMatchesSortedListing: the one-pass listing equals the
// group-then-sort one on random forests, all-singleton and single-cluster ones
// included, in both Find modes.
func TestClustersMatchesSortedListing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(60)
		u := New(n)
		if trial%5 == 4 {
			u.BeginUndoLog()
		}
		var unions int
		switch trial % 3 {
		case 0: // all singletons
		case 1: // one cluster
			unions = 4 * n
		default:
			unions = rng.Intn(n + 1)
		}
		for i := 0; i < unions && n > 1; i++ {
			if trial%3 == 1 {
				u.Union(int32(i%n), int32((i+1)%n))
			} else {
				u.Union(int32(rng.Intn(n)), int32(rng.Intn(n)))
			}
		}
		got, want := u.Clusters(), sortedClusters(u)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d): Clusters() = %v, want %v", trial, n, got, want)
		}
		if len(got) != u.Sets() {
			t.Fatalf("trial %d: %d clusters listed, %d sets", trial, len(got), u.Sets())
		}
	}
}
