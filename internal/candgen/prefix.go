package candgen

import "math"

// This file holds the prefix-filtering foundations: the global rare-first
// token order and the threshold-derived prefix lengths. The classic
// set-similarity-join optimization: order all tokens globally from rare to
// frequent; a pair can reach similarity ≥ t only if the two records share a
// token within a threshold-derived prefix of that order, and only if their
// sizes (weight totals) are close enough. Indexing and probing only
// prefixes skips most low-overlap pairs a full token index touches — in
// particular the pairs that share nothing but ubiquitous tokens, whose
// posting lists dominate the full index's probe volume. The join itself is
// the size-ordered positional engine in positional.go.

// rarityOrder returns the global rare-first token order: rank[id] is token
// id's position in it, and byRank its inverse. The order is document
// frequency ascending, ties by id for determinism; a counting sort over the
// frequencies produces it directly.
func rarityOrder(df []int32) (rank, byRank []int32) {
	var maxDF int32
	for _, f := range df {
		maxDF = max(maxDF, f)
	}
	start := make([]int32, maxDF+1)
	for _, f := range df {
		if f < maxDF {
			start[f+1]++
		}
	}
	for f := int32(1); f <= maxDF; f++ {
		start[f] += start[f-1]
	}
	rank = make([]int32, len(df))
	byRank = make([]int32, len(df))
	for id, f := range df {
		rank[id] = start[f]
		byRank[start[f]] = int32(id)
		start[f]++
	}
	return rank, byRank
}

// unweightedPrefixLen returns the probe-prefix length for a record of n
// tokens at threshold t: n − ⌈t·n⌉ + 1, clamped to [1, n]. boundSlack keeps
// float rounding from shortening the prefix at exact boundaries.
func unweightedPrefixLen(n int, t float64) int {
	plen := n - int(math.Ceil(t*float64(n)-boundSlack)) + 1
	if plen < 1 {
		plen = 1
	}
	if plen > n {
		plen = n
	}
	return plen
}

// unweightedIndexPrefixLen returns the index-prefix length for a record of
// n tokens at threshold t under size-ordered processing:
// n − ⌈2t·n/(1+t)⌉ + 1, clamped to [1, n]. Only probes at least as large
// reach the index side, so the required overlap is at least 2t·n/(1+t) —
// tighter than the t·n the probe prefix must cover.
func unweightedIndexPrefixLen(n int, t float64) int {
	plen := n - int(math.Ceil(2*t*float64(n)/(1+t)-boundSlack)) + 1
	if plen < 1 {
		plen = 1
	}
	if plen > n {
		plen = n
	}
	return plen
}
