package candgen

import (
	"cmp"
	"math/bits"
	"runtime"
	"slices"
	"sort"

	"crowdjoin/internal/core"
	"crowdjoin/internal/dataset"
)

// This file holds the size-ordered AllPairs engine with ppjoin-style
// positional filtering — the default prefix-join implementation behind
// PrefixCandidates and WeightedPrefixCandidates.
//
// Records are processed in size-ascending order (weight-ascending for IDF
// scorers, ties by record id), so when record x probes the index every
// indexed partner y precedes it in that order and satisfies |y| ≤ |x|
// (W(y) ≤ W(x)). Two bounds follow:
//
//   - Index prefix (AllPairs): Jaccard ≥ t with |x| ≥ |y| forces
//     |x∩y| ≥ t(|x|+|y|)/(1+t) ≥ 2t/(1+t)·|y|, so y only needs its first
//     |y| − ⌈2t·|y|/(1+t)⌉ + 1 rare-first tokens in the index — shorter
//     than the n − ⌈t·n⌉ + 1 probe prefix, which x still probes in full
//     (by the prefix lemma with the pair's true minimum overlap, y's
//     index prefix and x's probe prefix must share a token). Weighted:
//     suffix weight < 2t/(1+t)·W(y) replaces the count bound.
//   - Positional filter (ppjoin): postings store (record, prefix
//     position). Both token lists are sorted by the same global rank
//     order, so at a match of x[i] with y[j] every earlier shared token
//     was already counted and every later one sits past both positions.
//     The overlap can therefore never exceed
//     (overlap so far) + 1 + min(|x|−i−1, |y|−j−1)
//     (suffix *weights* after i and j for IDF scorers); when that upper
//     bound cannot reach the pair's minimum overlap the candidate is
//     killed before the merge-based verifier ever runs, and later
//     matches of a killed candidate are skipped.
//
// Both filters only ever discard pairs whose similarity is provably below
// the threshold (boundSlack pads every comparison toward keeping the
// pair), and verification computes the identical expression Similarity
// does — so the engine stays byte-identical to ExhaustiveCandidates.
//
// Bipartite datasets run through the same loop: both sides are indexed
// (index prefixes only) and both sides probe, with a per-record side
// check skipping same-source postings; each cross pair is generated
// exactly once, by its size-order-later record.

// posting is one (record, prefix position) entry of the positional index;
// pos is the token's position in rec's rank-ordered token list.
type posting struct {
	rec int32
	pos int32
}

// positionalIndex is a CSR posting table: token id → postings in
// processing order (so probe scans can stop at the first entry that does
// not precede the probing record).
type positionalIndex struct {
	entries []posting
	offs    []int32
}

func (ix *positionalIndex) list(tok int32) []posting {
	return ix.entries[ix.offs[tok]:ix.offs[tok+1]]
}

// positionalSet is the per-join state of the size-ordered engine: probe
// and index prefix lengths over the scorer's rank arena, the processing
// order, and the weighting-specific bound inputs.
type positionalSet struct {
	s     *Scorer
	t     float64
	plen  []int32 // probe-prefix length per record
	iplen []int32 // index-prefix length per record
	order []int32 // records sorted size-(weight-)ascending, ties by id
	pos   []int32 // pos[r] = r's slot in order
	side  []uint8 // bipartite: source per record; nil for unipartite
	// weighted state; nil for Unweighted scorers:
	recW []float64 // per-record weight totals (aliases Scorer.recWeight)
	sufW []float64 // suffix-weight arena (aliases Scorer.sufArena)
}

// probePrefix returns record r's probe-prefix tokens.
func (ps *positionalSet) probePrefix(r int32) []int32 {
	off := ps.s.offs[r]
	return ps.s.rankArena[off : off+ps.plen[r]]
}

// indexPrefix returns record r's index-prefix tokens.
func (ps *positionalSet) indexPrefix(r int32) []int32 {
	off := ps.s.offs[r]
	return ps.s.rankArena[off : off+ps.iplen[r]]
}

// buildPositionalSet prepares the size-ordered engine for one join:
// rare-first prefixes truncated at the probe and index bounds, the
// processing order, and (for bipartite datasets) the side table. The set's
// backing arrays live in js and are reused across joins (nil js: allocate
// fresh, for tests and direct callers).
func buildPositionalSet(d *dataset.Dataset, s *Scorer, t float64, js *joinScratch) *positionalSet {
	if js == nil {
		js = &joinScratch{}
	}
	s.ensureRankArena()
	n := s.numRecords()
	ps := &js.set
	ps.s = s
	ps.t = t
	ps.plen = grow(ps.plen, n)
	ps.iplen = grow(ps.iplen, n)
	ps.order = grow(ps.order, n)
	ps.pos = grow(ps.pos, n)
	ps.recW = s.recWeight
	ps.sufW = s.sufArena
	ps.side = nil
	for r := int32(0); r < int32(n); r++ {
		sz := s.size(r)
		if sz == 0 {
			// Never probed or indexed: no shared token possible. The
			// lengths are written explicitly — reused scratch carries the
			// previous join's values, not make's zeros.
			ps.plen[r] = 0
			ps.iplen[r] = 0
			continue
		}
		if ps.sufW == nil {
			ps.plen[r] = int32(unweightedPrefixLen(sz, t))
			ps.iplen[r] = int32(unweightedIndexPrefixLen(sz, t))
		} else {
			w := ps.recW[r]
			slack := boundSlack * (1 + w)
			ps.plen[r] = int32(s.weightedPrefixLenFor(r, t*w-slack))
			ps.iplen[r] = int32(s.weightedPrefixLenFor(r, 2*t/(1+t)*w-slack))
		}
	}
	for i := range ps.order {
		ps.order[i] = int32(i)
	}
	slices.SortFunc(ps.order, func(a, b int32) int {
		if ps.sufW == nil {
			if c := cmp.Compare(s.size(a), s.size(b)); c != 0 {
				return c
			}
		} else if c := cmp.Compare(ps.recW[a], ps.recW[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for i, r := range ps.order {
		ps.pos[r] = int32(i)
	}
	if d.Bipartite {
		ps.side = grow(js.sideBuf, n)
		clear(ps.side)
		js.sideBuf = ps.side
		for _, r := range d.SourceB {
			ps.side[r] = 1
		}
	}
	return ps
}

// buildPositionalPostings lays the index prefixes out as a CSR posting
// table, inserting records in processing order so every posting list is
// sorted by it. The table's backing arrays live in js and are reused
// across joins (nil js: allocate fresh).
func buildPositionalPostings(ps *positionalSet, js *joinScratch) *positionalIndex {
	if js == nil {
		js = &joinScratch{}
	}
	ix := &js.index
	offs := grow(ix.offs, ps.s.numTokens+1)
	clear(offs)
	for _, r := range ps.order {
		for _, tok := range ps.indexPrefix(r) {
			offs[tok+1]++
		}
	}
	for i := 1; i < len(offs); i++ {
		offs[i] += offs[i-1]
	}
	entries := grow(ix.entries, int(offs[len(offs)-1]))
	next := grow(js.next, ps.s.numTokens)
	copy(next, offs)
	for _, r := range ps.order {
		for j, tok := range ps.indexPrefix(r) {
			entries[next[tok]] = posting{rec: r, pos: int32(j)}
			next[tok]++
		}
	}
	js.next = next
	ix.offs = offs
	ix.entries = entries
	return ix
}

// positionalProbeShard scans probe[lo:hi] (probe is a slice of the
// processing order) against the positional index. Per candidate it
// applies the size filter once, accumulates the prefix overlap, and
// kills the candidate at the first match whose positional (or,
// unweighted, bitset-tightened) upper bound cannot reach the pair's
// minimum overlap; survivors are verified exactly once per probe record,
// with the accumulated overlap and last matched positions handed to the
// verifier as resume state (verify.go) so the merge continues mid-stream
// instead of restarting at token 0. sc
// holds the worker-private scratch (see parallel.go); seen marks are
// positions in the whole probe list, so one scratch serves every chunk a
// worker claims, and pairs are appended to sc.pairs.
func positionalProbeShard(ps *positionalSet, ix *positionalIndex, probe []int32, lo, hi int, sc *shardScratch, verify verifier) {
	s := ps.s
	weighted := ps.sufW != nil
	c1 := ps.t / (1 + ps.t)
	seen, ov := sc.seen, sc.ov
	rov, rxi, ryj, fsh := sc.rov, sc.rxi, sc.ryj, sc.fsh
	cands := sc.cands[:0]
	out := sc.pairs
	masks, rareLens := s.freqMask, s.rareLen
	for pi := lo; pi < hi; pi++ {
		x := probe[pi]
		prefix := ps.probePrefix(x)
		if len(prefix) == 0 {
			continue
		}
		px := ps.pos[x]
		offX := s.offs[x]
		szX := float64(s.size(x))
		var rlx int32
		var maskX uint64
		if !weighted {
			rlx = rareLens[x]
			maskX = masks[x]
		}
		var wX, minPartner float64
		if weighted {
			wX = ps.recW[x]
			minPartner = ps.t*wX - boundSlack*(1+wX)
		} else {
			minPartner = ps.t*szX - boundSlack
		}
		mark := int32(pi + 1)
		cands = cands[:0]
		for i, tok := range prefix {
			var remX float64
			if weighted {
				remX = ps.sufW[offX+int32(i)]
			} else {
				remX = szX - float64(i) - 1
			}
			rareRemX := rlx - int32(i) - 1
			if rareRemX < 0 {
				rareRemX = 0
			}
			for _, pt := range ix.list(tok) {
				y := pt.rec
				if ps.pos[y] >= px {
					break // postings are in processing order
				}
				if ps.side != nil && ps.side[y] == ps.side[x] {
					continue
				}
				var szY float64
				if weighted {
					szY = ps.recW[y]
				} else {
					szY = float64(s.size(y))
				}
				var wTok, need float64
				if weighted {
					wTok = s.idf[tok]
					need = c1*(wX+szY) - boundSlack*(1+wX+szY)
				} else {
					wTok = 1
					need = c1*(szX+szY) - boundSlack
				}
				if seen[y] != mark {
					seen[y] = mark
					if szY < minPartner {
						ov[y] = -1 // size filter: sim ≤ szY/szX < t
						continue
					}
					ov[y] = 0
					rov[y] = 0
					rxi[y] = -1
					ryj[y] = -1
					if !weighted {
						// One popcount per candidate: the pair's shared
						// frequent row, reused by the bitset bound below
						// and by the resumed verifier.
						fsh[y] = int32(bits.OnesCount64(maskX & masks[y]))
					}
					cands = append(cands, y)
				} else if ov[y] < 0 {
					continue // killed earlier; the bound only tightens
				}
				var remY float64
				if weighted {
					remY = ps.sufW[s.offs[y]+pt.pos]
				} else {
					remY = szY - float64(pt.pos) - 1
				}
				rem := remX
				if remY < rem {
					rem = remY
				}
				a := ov[y] + wTok
				if a+rem < need {
					ov[y] = -1 // positional bound: overlap can't reach need
					continue
				}
				if weighted {
					// Weighted resume state: every surviving prefix match
					// advances the checkpoint the verifier resumes from.
					rxi[y] = int32(i)
					ryj[y] = pt.pos
				} else {
					nrov := rov[y]
					if int32(i) < rlx {
						nrov++
					}
					// Bitset-tightened bound: future matches are at most
					// the smaller rare remainder plus the shared frequent
					// row — usually far below the raw suffix counts.
					rareRemY := rareLens[y] - pt.pos - 1
					if rareRemY < 0 {
						rareRemY = 0
					}
					rareRem := rareRemX
					if rareRemY < rareRem {
						rareRem = rareRemY
					}
					if float64(nrov+rareRem+fsh[y]) < need {
						ov[y] = -1
						continue
					}
					if int32(i) < rlx {
						// Only rare matches advance the resume checkpoint:
						// the frequent suffix is covered by the popcount.
						rov[y] = nrov
						rxi[y] = int32(i)
						ryj[y] = pt.pos
					}
				}
				ov[y] = a
			}
		}
		for _, y := range cands {
			if ov[y] < 0 {
				continue
			}
			var rs resume
			if weighted {
				rs = resume{ov: ov[y], xi: rxi[y], yj: ryj[y], shared: -1}
			} else {
				rs = resume{ov: float64(rov[y]), xi: rxi[y], yj: ryj[y], shared: fsh[y]}
			}
			if sim, ok := verify(x, y, rs); ok {
				a, b := x, y
				if a > b {
					a, b = b, a // normalize so A < B regardless of probe direction
				}
				out = append(out, core.Pair{A: a, B: b, Likelihood: sim})
			}
		}
	}
	sc.cands = cands
	sc.pairs = out
}

// positionalJoin runs the size-ordered positional join end to end: build
// the CSR postings once (into the scorer's pooled scratch, so repeated
// joins allocate little beyond the returned pair slice), probe on the
// chunked work queue (see parallel.go), and return the result sorted by
// likelihood with dense IDs — byte-identical to ExhaustiveCandidates.
func positionalJoin(d *dataset.Dataset, s *Scorer, t float64, verify verifier) []core.Pair {
	js := s.getScratch()
	ps := buildPositionalSet(d, s, t, js)
	ix := buildPositionalPostings(ps, js)
	// Zero-size and empty-prefix records contribute no probe work; drop
	// them from the probe list (pos keeps full-order coordinates) so the
	// worker count reflects real load.
	probe := js.probe[:0]
	for _, r := range ps.order {
		if ps.plen[r] > 0 {
			probe = append(probe, r)
		}
	}
	js.probe = probe
	pairs := positionalShards(ps, ix, probe, verify, probeWorkers(len(probe), runtime.GOMAXPROCS(0)), js)
	s.putScratch(js)
	for i := range pairs {
		pairs[i].ID = i
	}
	return pairs
}

// weightedPrefixLenFor returns the shortest prefix of record r (in rank
// order) whose remaining suffix weight drops below need, in [1, size].
// The suffix-weight arena is non-increasing within a record, so the
// boundary is found by binary search.
func (s *Scorer) weightedPrefixLenFor(r int32, need float64) int {
	off := s.offs[r]
	sz := s.size(r)
	p := 1 + sort.Search(sz, func(i int) bool { return s.sufArena[off+int32(i)] < need })
	if p > sz {
		p = sz // need ≤ 0: the bound gives no truncation
	}
	return p
}
