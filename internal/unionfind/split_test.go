package unionfind

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// walk lists the members of r's set by following the cycle from r.
func walk(u *UF, r int32) []int32 {
	out := []int32{r}
	for m := u.Next(r); m != r; m = u.Next(m) {
		out = append(out, m)
	}
	return out
}

// assertSameState fails unless u and want hold the same partition with the
// same roots, sizes and member walks.
func assertSameState(t *testing.T, step int, u, want *UF) {
	t.Helper()
	if u.Sets() != want.Sets() {
		t.Fatalf("step %d: Sets = %d, want %d", step, u.Sets(), want.Sets())
	}
	for x := int32(0); int(x) < u.Len(); x++ {
		if u.Find(x) != want.Find(x) {
			t.Fatalf("step %d: Find(%d) = %d, want %d", step, x, u.Find(x), want.Find(x))
		}
		if u.SizeOf(x) != want.SizeOf(x) {
			t.Fatalf("step %d: SizeOf(%d) = %d, want %d", step, x, u.SizeOf(x), want.SizeOf(x))
		}
		if r := want.Find(x); r == x {
			if got, w := walk(u, r), walk(want, r); !slices.Equal(got, w) {
				t.Fatalf("step %d: walk from root %d = %v, want %v", step, r, got, w)
			}
		}
	}
}

// TestSplitRestoresState interleaves unions, finds and splits, checking
// after each burst of splits that roots, sizes, the set count and every
// member cycle match a partition rebuilt from the surviving prefix of
// unions.
func TestSplitRestoresState(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(5))
	u := New(n)

	type union struct{ x, y, root, absorbed int32 }
	var applied []union // unions that actually merged, in order

	for step := 0; step < 2000; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			x, y := int32(rng.Intn(n)), int32(rng.Intn(n))
			if root, absorbed, merged := u.Union(x, y); merged {
				applied = append(applied, union{x, y, root, absorbed})
			}
		case 5, 6, 7:
			u.Find(int32(rng.Intn(n)))
		default:
			if len(applied) == 0 {
				continue
			}
			k := 1 + rng.Intn(len(applied))
			for i := 0; i < k; i++ {
				last := applied[len(applied)-1]
				u.Split(last.root, last.absorbed)
				applied = applied[:len(applied)-1]
			}
			want := New(n)
			for _, op := range applied {
				want.Union(op.x, op.y)
			}
			assertSameState(t, step, u, want)
		}
	}
}

// TestGrowBetweenUnionAndSplit: growing the universe leaves earlier unions
// splittable, and unions across the old boundary split back too.
func TestGrowBetweenUnionAndSplit(t *testing.T) {
	u := New(3)
	r1, a1, _ := u.Union(0, 1)
	u.Grow(6)
	r2, a2, _ := u.Union(4, 1)
	r3, a3, _ := u.Union(5, 3)
	u.Split(r3, a3)
	u.Split(r2, a2)
	u.Split(r1, a1)
	assertSameState(t, 0, u, New(6))
}

// TestClustersAfterSplit: after unions are split back, the one-pass
// listing equals the group-then-sort one and the listing taken before the
// unions.
func TestClustersAfterSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(60)
		u := New(n)
		for i := rng.Intn(n); i > 0; i-- {
			u.Union(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		before := u.Clusters()
		var undo [][2]int32
		for i := rng.Intn(2 * n); i > 0; i-- {
			if r, a, merged := u.Union(int32(rng.Intn(n)), int32(rng.Intn(n))); merged {
				undo = append(undo, [2]int32{r, a})
			}
		}
		for i := len(undo) - 1; i >= 0; i-- {
			u.Split(undo[i][0], undo[i][1])
		}
		got := u.Clusters()
		if want := sortedClusters(u); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d): Clusters() = %v, want %v", trial, n, got, want)
		}
		if !reflect.DeepEqual(got, before) {
			t.Fatalf("trial %d (n=%d): Clusters() after split = %v, before the unions %v", trial, n, got, before)
		}
	}
}
