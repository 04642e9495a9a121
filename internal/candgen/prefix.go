package candgen

import (
	"fmt"
	"math"

	"crowdjoin/internal/core"
	"crowdjoin/internal/dataset"
)

// This file holds the prefix-filtering foundations: the global rare-first
// token order, the threshold-derived prefix lengths, the exact merge
// verifier, and the unweighted entry point. The classic
// set-similarity-join optimization: order all tokens globally from rare to
// frequent; a pair can reach similarity ≥ t only if the two records share a
// token within a threshold-derived prefix of that order, and only if their
// sizes (weight totals) are close enough. Indexing and probing only
// prefixes skips most low-overlap pairs a full token index touches — in
// particular the pairs that share nothing but ubiquitous tokens, whose
// posting lists dominate the full index's probe volume.
//
// The prefix join itself runs on the size-ordered positional engine in
// positional.go. The plain (position-free) probe machinery below —
// prefixSet, probeShard, prefixJoin — remains the full-token-index path:
// IndexCandidates is structurally the prefix join with every record's
// "prefix" being its whole token list, where size ordering and positional
// bounds have nothing to cut.

// prefixSet holds every record's indexable-token count over the plain
// id-ordered arena — full lengths for the full-index path (fullTokenSet),
// the only remaining producer now that the prefix-filter paths carry
// their truncation state in positionalSet.
type prefixSet struct {
	s     *Scorer
	arena []int32
	plen  []int32
}

// prefix returns record r's filter-prefix tokens.
func (p *prefixSet) prefix(r int32) []int32 {
	off := p.s.offs[r]
	return p.arena[off : off+p.plen[r]]
}

// fullTokenSet returns a prefixSet whose "prefixes" are whole token lists
// in plain id order, turning the prefix join into the full-index join.
func (s *Scorer) fullTokenSet() *prefixSet {
	ps := &prefixSet{s: s, arena: s.arena, plen: make([]int32, s.numRecords())}
	for r := range ps.plen {
		ps.plen[r] = s.offs[r+1] - s.offs[r]
	}
	return ps
}

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

// verifier checks one candidate pair and, when its exact similarity
// reaches the threshold, returns it. The first argument is the probing
// record, the second its indexed partner; rs carries the probe loop's
// accumulated resume state (see verify.go) so positional verifiers can
// continue the merge mid-stream instead of re-merging from token 0. Call
// sites without probe state pass noResume.
type verifier func(x, y int32, rs resume) (float64, bool)

// prefixJoin runs the prefix-filtered join: it builds the prefix index
// (over the smaller side for bipartite datasets), probes it with every
// record's prefix, verifies each distinct candidate pair once, and returns
// the result sorted by likelihood with dense IDs. The probe loop is sharded
// across GOMAXPROCS workers (see parallel.go).
func prefixJoin(d *dataset.Dataset, s *Scorer, ps *prefixSet, verify verifier) []core.Pair {
	var pairs []core.Pair
	if d.Bipartite {
		probe, build := d.SourceA, d.SourceB
		if len(probe) < len(build) {
			probe, build = build, probe
		}
		index := buildPostings(s.numTokens, s.numRecords(), build, ps.prefix)
		pairs = probeShards(d.Len(), ps, index, probe, false, verify, probeWorkers(len(probe), false))
	} else {
		index := buildPostings(s.numTokens, s.numRecords(), nil, ps.prefix)
		probe := make([]int32, d.Len())
		for i := range probe {
			probe[i] = int32(i)
		}
		pairs = probeShards(d.Len(), ps, index, probe, true, verify, probeWorkers(len(probe), true))
	}
	SortByLikelihood(pairs)
	for i := range pairs {
		pairs[i].ID = i
	}
	return pairs
}

// probeShard scans the probe records against the prefix index, verifying
// each distinct candidate pair once per probe record. In unipartite mode
// only partners b < a are considered (posting lists are ascending, so the
// scan breaks at the first b ≥ a), giving each unordered pair exactly one
// probing side. seen must be a zeroed (or shard-private) d.Len()-sized
// scratch slice.
func probeShard(ps *prefixSet, index [][]int32, probe []int32, uni bool, seen []int32, verify verifier, out []core.Pair) []core.Pair {
	for pi, a := range probe {
		mark := int32(pi + 1)
		for _, tok := range ps.prefix(a) {
			for _, b := range index[tok] {
				if uni && b >= a {
					break
				}
				if seen[b] == mark {
					continue
				}
				seen[b] = mark
				x, y := a, b
				if x > y {
					x, y = y, x // normalize so A < B regardless of probe direction
				}
				if sim, ok := verify(x, y, noResume); ok {
					out = append(out, core.Pair{A: x, B: y, Likelihood: sim})
				}
			}
		}
	}
	return out
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

// verifyJaccard applies the size filter and computes the exact Jaccard
// similarity of (a, b) with merge early-exit: the merge aborts as soon as
// the intersection can no longer reach t·|a∪b|. The returned similarity is
// the identical expression Similarity computes, so accepted pairs carry
// byte-identical likelihoods.
func (s *Scorer) verifyJaccard(a, b int32, t float64) (float64, bool) {
	ta, tb := s.tok(a), s.tok(b)
	la, lb := len(ta), len(tb)
	if float64(la) < t*float64(lb)-boundSlack || float64(lb) < t*float64(la)-boundSlack {
		return 0, false
	}
	// Jaccard ≥ t ⟺ inter ≥ ⌈t·(la+lb)/(1+t)⌉ =: minInter. Each side can
	// skip at most len−minInter tokens before the intersection becomes
	// unreachable, so the merge pays for the bound only on mismatches: one
	// integer decrement and sign check.
	minInter := int(math.Ceil(t*float64(la+lb)/(1+t) - boundSlack))
	budgetA, budgetB := la-minInter, lb-minInter
	inter := 0
	i, j := 0, 0
	for i < la && j < lb {
		switch {
		case ta[i] == tb[j]:
			inter++
			i++
			j++
		case ta[i] < tb[j]:
			i++
			budgetA--
			if budgetA < 0 {
				return 0, false
			}
		default:
			j++
			budgetB--
			if budgetB < 0 {
				return 0, false
			}
		}
	}
	union := la + lb - inter
	if union == 0 {
		return 1, 1 >= t
	}
	sim := float64(inter) / float64(union)
	return sim, sim >= t
}

// PrefixCandidates computes the same result as Candidates for Unweighted
// scorers using the size-ordered positional join (see positional.go).
// IDF-weighted scorers need the weighted bounds; PrefixCandidates rejects
// them rather than silently losing pairs — use WeightedPrefixCandidates
// (or the Candidates dispatcher).
func PrefixCandidates(d *dataset.Dataset, s *Scorer, minThreshold float64) ([]core.Pair, error) {
	if minThreshold <= 0 || minThreshold > 1 {
		return nil, fmt.Errorf("candgen: minThreshold %v outside (0,1]", minThreshold)
	}
	if s.weighting != Unweighted {
		return nil, fmt.Errorf("candgen: prefix filtering requires an unweighted scorer")
	}
	// The probe loop's size filter covers the admitted candidates, and the
	// resumed kernel (verify.go) picks the merge up from the probe state.
	verify := func(x, y int32, rs resume) (float64, bool) { return s.verifyJaccardResumed(x, y, rs, minThreshold) }
	return positionalJoin(d, s, minThreshold, verify), nil
}
