// Package candgen implements the machine-based half of the paper's hybrid
// workflow (Section 2.3, following CrowdER [25]): it computes a matching
// likelihood for record pairs via string similarity and keeps only the pairs
// above a likelihood threshold as the candidate set handed to the crowd.
//
// Records are pre-tokenized into sorted integer token ids laid out in one
// contiguous CSR-style arena (offsets + flat token slice), so the similarity
// of a pair costs one cache-friendly linear merge.
//
// Candidate pairs must share at least one token: a record that tokenizes to
// nothing never forms candidates on any path (including the exhaustive
// reference), even though Similarity degenerately reports 1 for two empty
// token sets.
//
// # Candidate generation paths and routing
//
// Candidates is the entry point and auto-routes between three equivalent
// generators — every path returns the byte-identical pair set (same pairs,
// same likelihoods, same order, same dense IDs):
//
//   - Size-ordered positional prefix join (PrefixCandidates,
//     WeightedPrefixCandidates; positional.go): the default whenever
//     minThreshold ≥ 0.05. Tokens are ordered globally from rare to
//     frequent and records are processed in size-ascending
//     (weight-ascending for IDF) order, so the index side of every pair
//     is the smaller record and only needs its first
//     |y| − ⌈2t·|y|/(1+t)⌉ + 1 tokens indexed (the AllPairs bound) while
//     probes scan their full |x| − ⌈t·|x|⌉ + 1 probe prefix. Postings
//     carry (record, prefix position), and a ppjoin-style positional
//     upper bound — overlap so far plus the smaller remaining suffix —
//     kills candidates before the merge-based verifier runs. GOMAXPROCS
//     workers claim chunks of the probe list from one work queue and sort
//     their own runs, which merge into the result.
//   - Full token index (IndexCandidates): used below the routing threshold,
//     where prefixes degenerate to whole token lists and the global
//     rarity sort is pure overhead. Lossless for any positive threshold.
//   - Exhaustive scoring (ExhaustiveCandidates): scores the whole pair
//     universe; the correctness reference and blocking-ablation baseline.
//
// The unweighted prefix bound is the classic one: a pair can reach Jaccard
// ≥ t only if the records share a token among their probe prefixes and
// |x|, |y| are within a factor t; with size-ordered processing the smaller
// side's requirement tightens to 2t/(1+t) of its size (Jaccard ≥ t forces
// |x∩y| ≥ t(|x|+|y|)/(1+t) ≥ 2t/(1+t)·|y| when |y| ≤ |x|). The
// IDF-weighted bounds generalize both by replacing set sizes with
// per-record weight totals W(x) = Σ idf(tok) and remaining token counts
// with remaining suffix weights: each record's probe prefix extends until
// the weight remaining after it drops below t·W(x), its index prefix until
// the remainder drops below 2t/(1+t)·W(x), and the size filter becomes
// min(W(x), W(y)) ≥ t·max(W(x), W(y)). Derivations live with the code:
// positional.go (engine and unweighted bounds) and weighted.go (weighted
// bounds).
package candgen

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"crowdjoin/internal/core"
	"crowdjoin/internal/dataset"
)

// Weighting selects how token overlap is scored.
type Weighting uint8

const (
	// Unweighted scores plain Jaccard over distinct tokens.
	Unweighted Weighting = iota
	// IDFWeighted scores Jaccard with tokens weighted by smoothed inverse
	// document frequency, de-emphasizing ubiquitous tokens.
	IDFWeighted
)

// prefixRoutingThreshold is the smallest threshold Candidates routes to the
// prefix-filtering path. Below it a record's filter prefix is (nearly) its
// whole token list, so the rare-first sort buys nothing over the plain
// token index.
const prefixRoutingThreshold = 0.05

// boundSlack pads the floating-point filter bounds (size ratio, prefix
// length, merge early-exit) so rounding can only make them more permissive:
// a pair on the exact threshold boundary is always verified, never dropped.
// The final acceptance test is the exact Similarity comparison.
const boundSlack = 1e-9

// Scorer computes pair likelihoods for one dataset.
type Scorer struct {
	// arena holds every record's sorted distinct token ids back to back;
	// record r's tokens are arena[offs[r]:offs[r+1]].
	arena []int32
	offs  []int32
	// rankArena mirrors arena with each record's tokens sorted rare-first
	// (global df order; see rarityOrder) — the order prefix filtering
	// needs. It is threshold-independent, so it is built once, lazily on
	// the first prefix-path use (ensureRankArena): scorers that only score
	// pairs or run the full index never pay for it.
	rankOnce  sync.Once
	rankArena []int32
	// rankValArena parallels rankArena with each token's global rank value
	// (ascending within a record). The verification kernel merges rank
	// values instead of token ids: equality of rank is equality of token,
	// and the values are ordered by the same relation the probe loop walks
	// prefixes in, so a merge can resume mid-stream from probe state.
	rankValArena []int32
	// freqMask/rareLen split each record at the frequent-token rank cut
	// (the freqTokens most frequent tokens, mirroring clustergraph's
	// degree-escalation bitset rows): freqMask[r] has bit (rank − cut) set
	// for each of r's frequent tokens, and rareLen[r] is the count of r's
	// rare tokens — the length of the rank-list prefix the merge verifier
	// still walks; the frequent remainder is intersected with one
	// AND+popcount. freqCut is the cut rank.
	freqMask []uint64
	rareLen  []int32
	freqCut  int32
	// sufArena parallels rankArena for IDF-weighted scorers: the total
	// weight of record r's tokens strictly after each rank position —
	// the "remaining suffix weight" the positional filter and the
	// weighted prefix/index bounds are phrased in. Built with rankArena
	// (it depends only on the rank order and idf, not the threshold);
	// nil for Unweighted.
	sufArena []float64
	// numTokens is the distinct-token count, cached at build time.
	numTokens int
	// df is the per-token document frequency, counted during tokenization
	// and shared with the prefix filter's rarity order.
	df        []int32
	idf       []float64 // per token id; nil for Unweighted
	recWeight []float64 // per-record Σ idf; nil for Unweighted
	weighting Weighting
	// scratch pools joinScratch values (every per-join allocation of the
	// positional engine) so repeated joins over one scorer reuse capacity;
	// see parallel.go.
	scratch sync.Pool
}

// freqTokens is the width of the frequent-token bitmap: the freqTokens
// highest-ranked (most frequent) tokens get a bit each in every record's
// freqMask, so the frequent half of a verification merge collapses to one
// AND+popcount. It is a var, not a const, only so the kernel ablation
// benchmarks can build a bitmap-free scorer (0 = everything stays in the
// merged rare region); production code never mutates it.
var freqTokens = 64

// NewScorer tokenizes every record of d and prepares similarity state.
// Each record's fields are tokenized one after another, which yields the
// tokens of Record.Text without building it.
func NewScorer(d *dataset.Dataset, w Weighting) *Scorer {
	s := &Scorer{
		offs:      make([]int32, 1, d.Len()+1),
		weighting: w,
	}
	tz := newTokenizer()
	for i := range d.Records {
		for _, f := range d.Records[i].Fields {
			tz.add(s, f.Value)
		}
		s.endRecord()
	}
	s.numTokens = len(tz.dict)
	if w == IDFWeighted {
		s.idf = make([]float64, len(s.df))
		n := float64(d.Len())
		for id, f := range s.df {
			s.idf[id] = math.Log(1 + n/float64(1+f))
		}
		s.recWeight = make([]float64, d.Len())
		for r := range s.recWeight {
			var total float64
			for _, id := range s.tok(int32(r)) {
				total += s.idf[id]
			}
			s.recWeight[r] = total
		}
	}
	return s
}

// tok returns record r's sorted distinct token ids (a view into the arena).
func (s *Scorer) tok(r int32) []int32 { return s.arena[s.offs[r]:s.offs[r+1]] }

// rankTok returns record r's token ids sorted rare-first (a view into the
// rank arena; ensureRankArena must have run).
func (s *Scorer) rankTok(r int32) []int32 { return s.rankArena[s.offs[r]:s.offs[r+1]] }

// ensureRankArena builds the rare-first token arena on first use. The
// sync.Once keeps concurrent candidate generation over a shared scorer
// safe.
func (s *Scorer) ensureRankArena() {
	s.rankOnce.Do(func() {
		// Each record's rank values are sorted as plain integers and
		// mapped back to token ids through the inverse permutation: ranks
		// are a permutation of the ids, so this is the rare-first id order
		// without a comparator call per comparison.
		rank, byRank := rarityOrder(s.df)
		s.freqCut = max(int32(s.numTokens-freqTokens), 0)
		n := s.numRecords()
		s.rankValArena = make([]int32, len(s.arena))
		s.rankArena = make([]int32, len(s.arena))
		s.freqMask = make([]uint64, n)
		s.rareLen = make([]int32, n)
		for r := 0; r < n; r++ {
			off, end := s.offs[r], s.offs[r+1]
			vals := s.rankValArena[off:end]
			for i, tok := range s.arena[off:end] {
				vals[i] = rank[tok]
			}
			slices.Sort(vals)
			rl := int32(0)
			var mask uint64
			for i, v := range vals {
				s.rankArena[off+int32(i)] = byRank[v]
				if v >= s.freqCut {
					mask |= 1 << uint(v-s.freqCut)
				} else {
					rl = int32(i) + 1
				}
			}
			s.freqMask[r] = mask
			s.rareLen[r] = rl
		}
		if s.weighting == IDFWeighted {
			s.sufArena = make([]float64, len(s.rankArena))
			for r := 0; r < s.numRecords(); r++ {
				toks := s.rankTok(int32(r))
				off := s.offs[r]
				var suf float64
				for i := len(toks) - 1; i >= 0; i-- {
					s.sufArena[off+int32(i)] = suf
					suf += s.idf[toks[i]]
				}
			}
		}
	})
}

// size returns record r's distinct token count.
func (s *Scorer) size(r int32) int { return int(s.offs[r+1] - s.offs[r]) }

// numRecords returns the number of records the scorer was built over.
func (s *Scorer) numRecords() int { return len(s.offs) - 1 }

// NumTokens returns the distinct-token count of the scorer's token table
// (for inverted-index sizing). Cached at build time.
func (s *Scorer) NumTokens() int { return s.numTokens }

// Similarity returns the likelihood that records a and b match, in [0,1].
func (s *Scorer) Similarity(a, b int32) float64 {
	if s.weighting == Unweighted {
		return jaccardMerge(s.tok(a), s.tok(b))
	}
	return weightedJaccardMerge(s.tok(a), s.tok(b), s.idf)
}

// jaccardMerge computes plain Jaccard over two sorted distinct token-id
// lists with one linear merge. Two empty lists score the degenerate 1
// (candidate generation filters that case via the shared-token contract).
// Shared by the scorer and the corpus-free pairwise path (TextSimilarity),
// so the two stay identical by construction.
func jaccardMerge(ta, tb []int32) float64 {
	inter := 0
	i, j := 0, 0
	for i < len(ta) && j < len(tb) {
		switch {
		case ta[i] == tb[j]:
			inter++
			i++
			j++
		case ta[i] < tb[j]:
			i++
		default:
			j++
		}
	}
	union := len(ta) + len(tb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// weightedJaccardMerge is jaccardMerge with per-token-id weights (indexed
// by id, e.g. IDF).
func weightedJaccardMerge(ta, tb []int32, w []float64) float64 {
	var inter, union float64
	i, j := 0, 0
	for i < len(ta) && j < len(tb) {
		switch {
		case ta[i] == tb[j]:
			inter += w[ta[i]]
			union += w[ta[i]]
			i++
			j++
		case ta[i] < tb[j]:
			union += w[ta[i]]
			i++
		default:
			union += w[tb[j]]
			j++
		}
	}
	for ; i < len(ta); i++ {
		union += w[ta[i]]
	}
	for ; j < len(tb); j++ {
		union += w[tb[j]]
	}
	if union == 0 {
		return 1
	}
	return inter / union
}

// Candidates returns every pair of d's pair universe whose likelihood is at
// least minThreshold, sorted by likelihood descending (ties by object ids),
// with dense pair IDs assigned in that order. minThreshold must be positive:
// the inverted index only reaches pairs sharing a token.
//
// Candidates is a dispatcher: thresholds ≥ 0.05 route to the size-ordered
// positional prefix join (weighted or unweighted to match the scorer),
// lower thresholds to the full token index. All routes return identical
// results; see the package comment for the routing rules.
func Candidates(d *dataset.Dataset, s *Scorer, minThreshold float64) ([]core.Pair, error) {
	if minThreshold <= 0 || minThreshold > 1 {
		return nil, fmt.Errorf("candgen: minThreshold %v outside (0,1]", minThreshold)
	}
	if minThreshold >= prefixRoutingThreshold {
		if s.weighting == IDFWeighted {
			return WeightedPrefixCandidates(d, s, minThreshold)
		}
		return PrefixCandidates(d, s, minThreshold)
	}
	return IndexCandidates(d, s, minThreshold)
}

// IndexCandidates computes the candidate set with a full token inverted
// index (no prefix truncation): every pair sharing at least one token is
// verified. It is the routing fallback for near-zero thresholds and the
// baseline the prefix-filter ablation compares against. Structurally it is
// the prefix join with every record's "prefix" being its whole token list,
// which shares the probe queue and buildPostings.
func IndexCandidates(d *dataset.Dataset, s *Scorer, minThreshold float64) ([]core.Pair, error) {
	if minThreshold <= 0 || minThreshold > 1 {
		return nil, fmt.Errorf("candgen: minThreshold %v outside (0,1]", minThreshold)
	}
	verify := func(a, b int32, _ resume) (float64, bool) {
		sim := s.Similarity(a, b)
		return sim, sim >= minThreshold
	}
	return prefixJoin(d, s, s.fullTokenSet(), verify), nil
}

// buildPostings returns token id → record ids (ascending), taking each
// record's indexable tokens from tokensOf (the full token list for the
// plain index, the filter prefix for prefix filtering). With ids == nil it
// indexes every record.
func buildPostings(numTokens, numRecords int, ids []int32, tokensOf func(int32) []int32) [][]int32 {
	index := make([][]int32, numTokens)
	add := func(r int32) {
		for _, tok := range tokensOf(r) {
			index[tok] = append(index[tok], r)
		}
	}
	if ids == nil {
		for r := int32(0); r < int32(numRecords); r++ {
			add(r)
		}
	} else {
		sorted := slices.Clone(ids)
		slices.Sort(sorted)
		for _, r := range sorted {
			add(r)
		}
	}
	return index
}

// radixSortMin is the input size from which SortByLikelihood radix-sorts.
// Below it the comparison sort costs no more than the radix passes: on
// Jaccard-like likelihoods and ids under 1,000 the two meet near 1,000
// pairs, and at Paper@0.3's 11,074 the radix sort is 2.5x faster.
const radixSortMin = 1024

// SortByLikelihood sorts pairs by likelihood descending, breaking ties by
// object ids for determinism: comparePairsByLikelihood's order. Pairs
// travel whole, IDs included; pairs that compare equal may end up in
// either order. Large inputs are radix-sorted on pairKey.
func SortByLikelihood(pairs []core.Pair) {
	if len(pairs) < radixSortMin {
		slices.SortFunc(pairs, comparePairsByLikelihood)
		return
	}
	// One histogram per key byte (lo bytes, then hi bytes, least
	// significant first), counted in a single pass.
	var count [16][256]int
	for i := range pairs {
		hi, lo := pairKey(pairs[i])
		for b := 0; b < 8; b++ {
			count[b][byte(lo>>(8*b))]++
			count[8+b][byte(hi>>(8*b))]++
		}
	}
	hi0, lo0 := pairKey(pairs[0])
	src, dst := pairs, make([]core.Pair, len(pairs))
	for d := range count {
		word, shift := lo0, 8*uint(d%8)
		if d >= 8 {
			word = hi0
		}
		c := &count[d]
		if c[byte(word>>shift)] == len(pairs) {
			continue // every key shares this byte: the pass would move nothing
		}
		sum := 0
		for v, n := range c {
			c[v] = sum
			sum += n
		}
		for i := range src {
			hi, lo := pairKey(src[i])
			if d >= 8 {
				lo = hi
			}
			v := byte(lo >> shift)
			dst[c[v]] = src[i]
			c[v]++
		}
		src, dst = dst, src
	}
	if &src[0] != &pairs[0] {
		copy(pairs, src)
	}
}

// pairKey maps a pair to a 128-bit key, hi then lo, whose ascending order
// is comparePairsByLikelihood's. hi orders likelihoods descending the way
// cmp.Compare does: NaN after every number, −0 equal to +0. lo orders A,
// then B, ascending as signed integers.
func pairKey(p core.Pair) (hi, lo uint64) {
	lo = uint64(uint32(p.A)^(1<<31))<<32 | uint64(uint32(p.B)^(1<<31))
	f := p.Likelihood
	switch {
	case math.IsNaN(f):
		return math.MaxUint64, lo
	case f == 0:
		return 1<<63 - 1, lo // +0's key, for −0 too
	}
	bits := math.Float64bits(f)
	if bits>>63 != 0 {
		return bits, lo // negative: a larger magnitude sorts later
	}
	return ^bits &^ (1 << 63), lo
}

// comparePairsByLikelihood is SortByLikelihood's ordering as a comparator,
// shared with the stream index's sorted-accumulation merge.
func comparePairsByLikelihood(a, b core.Pair) int {
	if c := cmp.Compare(b.Likelihood, a.Likelihood); c != 0 {
		return c
	}
	if c := cmp.Compare(a.A, b.A); c != 0 {
		return c
	}
	return cmp.Compare(a.B, b.B)
}

// ForThreshold returns the prefix of a likelihood-descending master list
// whose likelihood is ≥ threshold, re-assigning dense pair IDs. The master
// list is not modified.
func ForThreshold(master []core.Pair, threshold float64) []core.Pair {
	hi := sort.Search(len(master), func(i int) bool { return master[i].Likelihood < threshold })
	out := make([]core.Pair, hi)
	copy(out, master[:hi])
	for i := range out {
		out[i].ID = i
	}
	return out
}

// ExhaustiveCandidates computes the same result as Candidates without any
// index, scoring every pair of the universe. It exists as the correctness
// reference and the blocking ablation baseline.
//
// Like every indexed path it honors the shared-token contract: a pair of
// records that both tokenize to nothing shares no token and is never a
// candidate, even though Similarity reports 1 for it.
func ExhaustiveCandidates(d *dataset.Dataset, s *Scorer, minThreshold float64) ([]core.Pair, error) {
	if minThreshold <= 0 || minThreshold > 1 {
		return nil, fmt.Errorf("candgen: minThreshold %v outside (0,1]", minThreshold)
	}
	var pairs []core.Pair
	emit := func(a, b int32) {
		if a > b {
			a, b = b, a
		}
		if s.size(a) == 0 && s.size(b) == 0 {
			return // no shared token; Similarity's degenerate 1 is not a candidate
		}
		if sim := s.Similarity(a, b); sim >= minThreshold {
			pairs = append(pairs, core.Pair{A: a, B: b, Likelihood: sim})
		}
	}
	if d.Bipartite {
		for _, a := range d.SourceA {
			for _, b := range d.SourceB {
				emit(a, b)
			}
		}
	} else {
		n := int32(d.Len())
		for b := int32(0); b < n; b++ {
			for a := int32(0); a < b; a++ {
				emit(a, b)
			}
		}
	}
	SortByLikelihood(pairs)
	for i := range pairs {
		pairs[i].ID = i
	}
	return pairs, nil
}
