package candgen

import (
	"math"
	"math/bits"
)

// This file holds the verification kernels of the positional engine: the
// overlap-resumed merge verifiers (unweighted and weighted).
//
// The key structural fact: the probe loop and the verifier now walk the
// SAME token order. Probe prefixes are rank-ordered (rare-first), and the
// verifier merges rankValArena — each record's global rank values,
// ascending — instead of the id-ordered arena. Equality of rank is
// equality of token, so the intersection is identical, and the probe
// loop's accumulated state (overlap so far, last matched positions) is a
// valid mid-stream checkpoint the merge resumes from instead of
// re-deriving the prefix overlap from token 0.
//
// The second structural fact: tokens more frequent than the freqCut rank
// occupy a *suffix* of every rank list (rank values ascend within a
// record), and there are at most freqTokens of them — so each record's
// frequent suffix is one 64-bit row (freqMask) and the frequent half of
// every intersection is a single AND+popcount. The merge only ever walks
// the rare prefix (rareLen tokens). Both facts are integer-exact for the
// unweighted kernel, so accepted similarities stay byte-identical to
// ExhaustiveCandidates.

// resume carries the probe loop's accumulated verification state for one
// candidate: ov is the overlap already matched inside both prefixes
// (rare-region match count for the unweighted kernel, full matched weight
// for the weighted one), (xi, yj) are the rank-list positions of the last
// such match in the probing / indexed record (-1: no match tracked), and
// shared is the cached popcount of the pair's frequent-row AND (-1: not
// computed; the unweighted kernel recounts it).
type resume struct {
	ov     float64
	xi, yj int32
	shared int32
}

// verifier checks one candidate pair and, when its exact similarity
// reaches the threshold, returns it. The first argument is the probing
// record, the second its indexed partner; rs carries the probe loop's
// accumulated resume state so the kernel continues the merge mid-stream
// instead of re-merging from token 0.
type verifier func(x, y int32, rs resume) (float64, bool)

// verifierAt returns the scorer's acceptance test at threshold t: the
// resumed kernel of its weighting. It is the one place that maps a
// weighting to its kernel; the batch join, the cascade's bands and the
// stream index all take their verifier from it.
func (s *Scorer) verifierAt(t float64) verifier {
	if s.weighting == IDFWeighted {
		return func(x, y int32, rs resume) (float64, bool) { return s.verifyWeightedResumed(x, y, rs, t) }
	}
	return func(x, y int32, rs resume) (float64, bool) { return s.verifyJaccardResumed(x, y, rs, t) }
}

// verifyJaccardResumed applies the exact unweighted acceptance test for
// the probing pair (x, y), resuming from the probe state rs:
//
//	inter = rs.ov                      (rare matches the probe counted)
//	      + popcount(maskX & maskY)    (the entire frequent suffix)
//	      + merge of the rare remainders from (xi+1, yj+1)
//
// The merge carries the classic miss budgets (each side can skip at most
// len − minInter tokens), pre-charged with the misses the resume state
// already proves: the unmatched prefix slots and the frequent tokens
// outside the shared row. All quantities are integers, so the returned
// similarity is the identical float ExhaustiveCandidates computes.
//
// The pair's size filter is the probing loop's responsibility (the
// candidate was admitted through it); callers without probe state must
// size-filter first.
func (s *Scorer) verifyJaccardResumed(x, y int32, rs resume, t float64) (float64, bool) {
	la, lb := s.size(x), s.size(y)
	minInter := int(math.Ceil(t*float64(la+lb)/(1+t) - boundSlack))
	shared := int(rs.shared)
	if shared < 0 {
		shared = bits.OnesCount64(s.freqMask[x] & s.freqMask[y])
	}
	rlx, rly := int(s.rareLen[x]), int(s.rareLen[y])
	i, j := int(rs.xi)+1, int(rs.yj)+1
	ov := int(rs.ov)
	inter := ov + shared
	// Known misses, charged up front: the resumed prefixes hold i − ov and
	// j − ov unmatched slots, and each side's frequent suffix misses
	// everything outside the shared row.
	budgetA := la - minInter - (i - ov) - (la - rlx - shared)
	budgetB := lb - minInter - (j - ov) - (lb - rly - shared)
	if budgetA < 0 || budgetB < 0 {
		return 0, false
	}
	ox, oy := s.offs[x], s.offs[y]
	ra := s.rankValArena[ox+int32(i) : ox+int32(rlx)]
	rb := s.rankValArena[oy+int32(j) : oy+int32(rly)]
	pa, pb := 0, 0
	for pa < len(ra) && pb < len(rb) {
		switch {
		case ra[pa] == rb[pb]:
			inter++
			pa++
			pb++
		case ra[pa] < rb[pb]:
			pa++
			budgetA--
			if budgetA < 0 {
				return 0, false
			}
		default:
			pb++
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

// verifyWeightedResumed is the weighted acceptance test for the probing
// pair (x, y). Weighted verification cannot reproduce Similarity's float
// result from a reordered merge (float addition is not associative), so
// the resumed merge is a *reject filter*: it accumulates intersection
// weight from the probe state with a remaining-suffix-weight early exit,
// and only pairs whose resumed intersection clears the (slack-padded)
// threshold bound pay for the exact Similarity merge — which is the value
// emitted, keeping results byte-identical to ExhaustiveCandidates.
func (s *Scorer) verifyWeightedResumed(x, y int32, rs resume, t float64) (float64, bool) {
	wx, wy := s.recWeight[x], s.recWeight[y]
	// Weighted Jaccard ≥ t ⟺ inter ≥ t/(1+t)·(W(x)+W(y)); the slack
	// scales with the weight magnitude (summation error grows with record
	// size) and also covers the rank-order-vs-id-order accumulation
	// difference between this filter and Similarity.
	need := t/(1+t)*(wx+wy) - boundSlack*(1+wx+wy)
	lx, ly := s.size(x), s.size(y)
	ox, oy := s.offs[x], s.offs[y]
	i, j := int(rs.xi)+1, int(rs.yj)+1
	inter := rs.ov
	remX, remY := wx, wy
	if i > 0 {
		remX = s.sufArena[ox+int32(i)-1]
	}
	if j > 0 {
		remY = s.sufArena[oy+int32(j)-1]
	}
	rem := remX
	if remY < rem {
		rem = remY
	}
	if inter+rem < need {
		return 0, false
	}
	rvx := s.rankValArena[ox : ox+int32(lx)]
	rvy := s.rankValArena[oy : oy+int32(ly)]
	for i < lx && j < ly {
		switch {
		case rvx[i] == rvy[j]:
			inter += s.idf[s.rankArena[ox+int32(i)]]
			i++
			j++
		case rvx[i] < rvy[j]:
			i++
			remX = s.sufArena[ox+int32(i)-1]
			if remX < remY && inter+remX < need {
				return 0, false
			}
		default:
			j++
			remY = s.sufArena[oy+int32(j)-1]
			if remY < remX && inter+remY < need {
				return 0, false
			}
		}
	}
	if inter < need {
		return 0, false
	}
	sim := s.Similarity(x, y)
	return sim, sim >= t
}
