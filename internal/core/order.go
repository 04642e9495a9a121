package core

import (
	"cmp"
	"math/rand"
	"slices"
)

// Truth is a ground-truth predicate over object pairs, used only by the
// oracle labeling orders (optimal and worst) that the paper evaluates as
// upper/lower reference points — they require knowing real labels upfront
// and are not achievable in practice (Section 4.1).
type Truth func(a, b int32) bool

// ExpectedOrder returns the paper's heuristic labeling order (Section 4.2):
// pairs sorted by decreasing likelihood of matching. Ties break by ID so the
// order is deterministic. The input is not modified.
func ExpectedOrder(pairs []Pair) []Pair {
	out := clonePairs(pairs)
	slices.SortFunc(out, CompareExpected)
	return out
}

// CompareExpected is ExpectedOrder's comparator: likelihood descending,
// ties by pair ID.
func CompareExpected(a, b Pair) int {
	if c := cmp.Compare(b.Likelihood, a.Likelihood); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// OptimalOrder returns an optimal labeling order per Theorem 1: all matching
// pairs first, then all non-matching pairs. Within each group pairs keep the
// expected-order arrangement (likelihood descending) for determinism; by
// Lemma 3 the within-group order does not change the crowdsourced count.
func OptimalOrder(pairs []Pair, truth Truth) []Pair {
	out := ExpectedOrder(pairs)
	slices.SortStableFunc(out, func(a, b Pair) int {
		ma, mb := truth(a.A, a.B), truth(b.A, b.B)
		if ma == mb {
			return 0
		}
		if ma {
			return -1
		}
		return 1
	})
	return out
}

// WorstOrder returns the order the paper evaluates as the worst case: all
// non-matching pairs first, then the matching pairs.
func WorstOrder(pairs []Pair, truth Truth) []Pair {
	out := ExpectedOrder(pairs)
	slices.SortStableFunc(out, func(a, b Pair) int {
		ma, mb := truth(a.A, a.B), truth(b.A, b.B)
		if ma == mb {
			return 0
		}
		if ma {
			return 1
		}
		return -1
	})
	return out
}

// RandomOrder returns a uniformly random permutation of pairs drawn from rng.
func RandomOrder(pairs []Pair, rng *rand.Rand) []Pair {
	out := clonePairs(pairs)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func clonePairs(pairs []Pair) []Pair {
	out := make([]Pair, len(pairs))
	copy(out, pairs)
	return out
}
