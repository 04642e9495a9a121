package candgen

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"crowdjoin/internal/core"
)

// randomKeyedPairs draws n pairs with distinct (A, B), so that
// comparePairsByLikelihood is a total order on them and the sorted slice
// is unique. Ids mostly come from a small universe, as candidate pairs
// do, and now and then from the whole int32 range (negatives included)
// to reach every key byte. like draws each likelihood; IDs are the input
// positions, so a sort that drops or swaps a pair's ID shows.
func randomKeyedPairs(rng *rand.Rand, n int, like func() float64) []core.Pair {
	id := func() int32 {
		if rng.Intn(8) == 0 {
			return int32(rng.Uint32())
		}
		return int32(rng.Intn(300))
	}
	seen := make(map[[2]int32]bool, n)
	pairs := make([]core.Pair, 0, n)
	for len(pairs) < n {
		a, b := id(), id()
		if a == b || seen[[2]int32{a, b}] {
			continue
		}
		seen[[2]int32{a, b}] = true
		pairs = append(pairs, core.Pair{ID: len(pairs), A: a, B: b, Likelihood: like()})
	}
	return pairs
}

// TestSortByLikelihoodMatchesComparator pins the key sort to the
// comparator it replaces: on every input it leaves exactly the slice
// slices.SortFunc(pairs, comparePairsByLikelihood) leaves, IDs included.
func TestSortByLikelihoodMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	specials := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(), 1, -1, math.SmallestNonzeroFloat64}
	likelihoods := []struct {
		name string
		draw func() float64
	}{
		// Jaccard's ratios of small integers: heavy ties.
		{"ratios", func() float64 {
			den := 1 + rng.Intn(12)
			return float64(rng.Intn(den+1)) / float64(den)
		}},
		// The IDF path's arbitrary floats.
		{"floats", rng.Float64},
		// cmp.Compare's edge cases among ordinary values: −0 ties +0,
		// NaN sorts after every number.
		{"specials", func() float64 {
			if rng.Intn(2) == 0 {
				return specials[rng.Intn(len(specials))]
			}
			return rng.NormFloat64()
		}},
	}
	for _, l := range likelihoods {
		for _, n := range []int{0, 1, 2, 17, radixSortMin - 1, radixSortMin, 5000} {
			pairs := randomKeyedPairs(rng, n, l.draw)
			want := slices.Clone(pairs)
			slices.SortFunc(want, comparePairsByLikelihood)
			SortByLikelihood(pairs)
			assertIdenticalPairs(t, l.name, n, pairs, want)
		}
	}
}

// TestMergeKeySortedHalves: mergeByLikelihood over two key-sorted halves
// equals one key sort of their union.
func TestMergeKeySortedHalves(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 300, 2000} {
		pairs := randomKeyedPairs(rng, n, func() float64 { return float64(rng.Intn(7)) / 6 })
		cut := 0
		if n > 0 {
			cut = rng.Intn(n)
		}
		a, b := slices.Clone(pairs[:cut]), slices.Clone(pairs[cut:])
		SortByLikelihood(a)
		SortByLikelihood(b)
		SortByLikelihood(pairs)
		assertIdenticalPairs(t, "merge", n, mergeByLikelihood(a, b), pairs)
	}
}

// assertIdenticalPairs compares two pair slices bit for bit (a likelihood's
// sign of zero and NaN included).
func assertIdenticalPairs(t *testing.T, name string, n int, got, want []core.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s n=%d: %d pairs, want %d", name, n, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.A != w.A || g.B != w.B || math.Float64bits(g.Likelihood) != math.Float64bits(w.Likelihood) {
			t.Fatalf("%s n=%d: position %d holds %+v, want %+v", name, n, i, g, w)
		}
	}
}
