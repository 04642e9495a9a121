package candgen

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"crowdjoin/internal/core"
	"crowdjoin/internal/dataset"
)

// This file holds the incremental (streaming) variant of the size-ordered
// positional engine: a StreamIndex accepts record batches over time and
// emits, per batch, exactly the candidate pairs the new records add —
// without ever rebuilding the CSR token arenas from scratch.
//
// # Run layout (LSM-style size-sorted runs)
//
// The batch engine (positional.go) relies on one global processing order:
// records sorted size-ascending (weight-ascending for IDF), so every probe
// only ever scans partners that precede it. An append-only corpus cannot
// keep one sorted array cheaply, so the stream index keeps several
// *runs* — disjoint record sets, each sorted by the same (size, id)
// relation — and every new batch becomes a new run. A new record probes
// all older runs in full plus its own run up to its own position (the
// classic break), so each pair is generated exactly once: by its
// later-arriving record, or — within one batch — by the run-order-later
// one.
//
// Runs store *probe* prefixes (n − ⌈t·n⌉ + 1 tokens), not the tighter
// index prefixes the batch engine indexes, because a cross-run probe can
// meet a partner from either side of the processing order: if the probing
// record x is globally later than y, the prefix lemma guarantees a match
// between x's probe prefix and y's index prefix; if x is globally
// *earlier* (a small record arriving after a large one), the roles flip
// and the guaranteed match is between x's index prefix and y's probe
// prefix. Storing probe prefixes covers both directions; a per-match
// admission check (posting position inside y's index prefix, or probe
// position inside x's) restores the tighter bound as a pure optimization.
// Everything else — positional kill bounds, frequent-row bitsets,
// overlap-resumed verification — is the batch kernel unchanged: all of it
// is phrased in per-record rank positions, which runs do not alter.
//
// # Merge policy
//
// After each append the newest runs are merged while the last run has
// grown to at least half its predecessor (size skew), and unconditionally
// while more than maxStreamRuns runs exist (count). Merging concatenates
// the member lists, re-sorts by (size, id), and rebuilds one CSR posting
// table — O(members) work that, with the 2x ratio, amortizes to
// O(log(total)/append) run rebuilds, the classic LSM bound. Probes walk
// at most maxStreamRuns posting lists per token.
//
// # Frozen token ranks
//
// Prefix filtering is lossless for ANY fixed total order on tokens — the
// df-ascending rank order is an efficiency heuristic, not a correctness
// requirement. The stream index therefore freezes the rank order at the
// first batch (ranks 0..n-1 by df within that batch) and assigns every
// later-discovered token the next value of a descending *negative*
// counter: new tokens sort before (rarer than) all frozen ones, never
// collide with the 64-bit frequent-row region (freqCut ≥ 0), and every
// record's rank list, mask, and rare length stay valid forever. Unweighted
// similarity is corpus-independent, so with frozen ranks each append's
// delta pairs are final and their union equals the batch join exactly.
//
// IDF weights are corpus-global (idf moves with every append), so weighted
// appends emit *provisional* deltas scored with the current weights, and
// Pairs() recomputes idf/recWeight/suffix arenas in place, rebuilds the
// postings, and re-probes — exact versus a from-scratch batch join, at the
// cost of one full probe pass per finish.

// maxStreamRuns bounds how many runs a probe walks per token; exceeding it
// forces newest-first merging regardless of the size ratio.
const maxStreamRuns = 8

// streamRun is one size-sorted run: a disjoint set of records sorted by
// the global (size, id) processing relation, with a CSR posting table over
// the members' probe prefixes. offs is sized to the token universe at
// build time; tokens introduced later cannot appear in the run's records.
type streamRun struct {
	order   []int32 // members, processing order
	offs    []int32 // CSR offsets, len = numTokens(at build)+1
	entries []posting
}

func (r *streamRun) list(tok int32) []posting {
	if int(tok) >= len(r.offs)-1 {
		return nil
	}
	return r.entries[r.offs[tok]:r.offs[tok+1]]
}

// StreamIndex is an incremental candidate generator: Append integrates a
// record batch and returns the candidate pairs the batch adds; Pairs
// returns the full candidate set accumulated so far, byte-identical to
// running Candidates over the final corpus in one shot. Methods are not
// safe for concurrent use; callers serialize.
type StreamIndex struct {
	t         float64
	weighting Weighting
	bipartite bool

	s  *Scorer
	tz *tokenizer
	// rank[tok] is the token's frozen global rank value; nextNewRank is the
	// next (negative, descending) value for tokens discovered after the
	// first batch. frozen flips once the first batch fixed the order.
	rank        []int32
	nextNewRank int32
	frozen      bool

	plen   []int32 // probe-prefix length per record
	iplen  []int32 // index-prefix length per record
	side   []uint8 // bipartite source per record; nil for unipartite
	runs   []streamRun
	runPos []int32 // record → position in its run's order

	// acc is the accumulated candidate set in SortByLikelihood order
	// (unweighted only: deltas there are final and pairwise disjoint, so
	// Pairs is one copy), each pair's ID holding its slot. finished caches
	// a weighted finish until the next append.
	acc      []core.Pair
	finished []core.Pair

	// probe scratch, keyed by record id; seen/adm use the monotone mark so
	// nothing is cleared between probes.
	mark  int32
	seen  []int32
	adm   []int32
	ov    []float64
	rov   []int32
	rxi   []int32
	ryj   []int32
	fsh   []int32
	cands []int32
}

// NewStreamIndex returns an empty incremental index for the given
// weighting, threshold, and dataset shape. Bipartite indexes take each
// record with a side (0 or 1) and only pair across sides.
func NewStreamIndex(w Weighting, t float64, bipartite bool) (*StreamIndex, error) {
	if err := checkThreshold("stream threshold", t); err != nil {
		return nil, err
	}
	si := &StreamIndex{
		t:         t,
		weighting: w,
		bipartite: bipartite,
		s:         &Scorer{offs: make([]int32, 1), weighting: w},
		tz:        newTokenizer(),
	}
	// The rank state is maintained incrementally by Append; a stray
	// ensureRankArena (e.g. via a shared kernel helper) must never rebuild
	// it from current dfs, which would unfreeze the order mid-session.
	si.s.rankOnce.Do(func() {})
	if bipartite {
		si.side = []uint8{}
	}
	return si, nil
}

// NumRecords returns the number of records appended so far.
func (si *StreamIndex) NumRecords() int { return si.s.numRecords() }

// NumRuns returns the current run count (observability and tests).
func (si *StreamIndex) NumRuns() int { return len(si.runs) }

// cmpRec is the global processing relation: size-ascending (weight-
// ascending for IDF), ties by record id. Record ids are unique, so it is a
// total order.
func (si *StreamIndex) cmpRec(a, b int32) int {
	if si.weighting == IDFWeighted {
		if c := cmp.Compare(si.s.recWeight[a], si.s.recWeight[b]); c != 0 {
			return c
		}
	} else if c := cmp.Compare(si.s.size(a), si.s.size(b)); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// freezeRanks fixes the global token order from the first batch's document
// frequencies (df ascending, ties by id — the batch engine's rarity order)
// and the frequent-row cut. Later tokens extend the order at the rare end
// via nextNewRank; the frozen ranks and freqCut never change again.
func (si *StreamIndex) freezeRanks() {
	s := si.s
	si.rank, _ = rarityOrder(s.df)
	s.freqCut = max(int32(s.numTokens-freqTokens), 0)
	si.frozen = true
	si.nextNewRank = -1
}

// Append integrates one record batch: tokenize into the shared arenas,
// extend the per-record rank/mask/weight state, probe the new records
// against all existing runs (and each other), and fold the batch into the
// run set per the merge policy. It returns the candidate pairs this batch
// added — final for unweighted indexes, provisional (current-idf) for
// weighted ones — sorted by likelihood, with no IDs assigned (Pairs owns
// the dense numbering). The first batch of an empty index runs on the
// batch engine (see firstBatch). sides must have one 0/1 entry per text for
// bipartite indexes and must be nil otherwise.
func (si *StreamIndex) Append(texts []string, sides []uint8) ([]core.Pair, error) {
	if si.bipartite {
		if len(sides) != len(texts) {
			return nil, fmt.Errorf("candgen: bipartite stream append needs one side per text (%d sides, %d texts)", len(sides), len(texts))
		}
		for _, sd := range sides {
			if sd > 1 {
				return nil, fmt.Errorf("candgen: stream side %d outside {0,1}", sd)
			}
		}
	} else if sides != nil {
		return nil, fmt.Errorf("candgen: sides supplied to a unipartite stream index")
	}
	s := si.s
	base := int32(s.numRecords())
	for _, text := range texts {
		si.tz.add(s, text)
		s.endRecord()
	}
	if si.bipartite {
		si.side = append(si.side, sides...)
	}
	s.numTokens = len(s.df)
	if !si.frozen {
		si.freezeRanks()
	}
	// Tokens first seen after the freeze sort rarer than every frozen
	// token, in id order.
	for len(si.rank) < s.numTokens {
		si.rank = append(si.rank, si.nextNewRank)
		si.nextNewRank--
	}
	si.extendRecordState(base)

	newRecs := make([]int32, 0, int(int32(s.numRecords()))-int(base))
	for r := base; r < int32(s.numRecords()); r++ {
		newRecs = append(newRecs, r)
	}
	run := si.buildRun(newRecs)
	var delta []core.Pair
	if base == 0 {
		delta = si.firstBatch()
	} else {
		delta = si.probeRun(&run, si.runs)
		SortByLikelihood(delta)
	}
	si.runs = append(si.runs, run)
	si.compactRuns()
	if si.weighting == Unweighted {
		// Each pair's slot is the ordinal at which it was emitted; acc
		// carries it in the ID field until Pairs renumbers a copy.
		for i := range delta {
			delta[i].ID = len(si.acc) + i
		}
		si.acc = mergeByLikelihood(si.acc, delta)
	}
	for i := range delta {
		delta[i].ID = 0
	}
	si.finished = nil
	return delta, nil
}

// firstBatch joins the records of an empty index's first batch on the
// batch engine (positionalJoin, probed on every CPU) over the index's own
// scorer state, instead of probing the batch's run against itself on one
// goroutine: both emit exactly the pairs at or above the threshold, and
// the batch engine returns them already in SortByLikelihood order. The
// run's posting table is still built, for later appends to probe.
func (si *StreamIndex) firstBatch() []core.Pair {
	d := &dataset.Dataset{Bipartite: si.bipartite}
	for r, sd := range si.side {
		if sd == 1 {
			d.SourceB = append(d.SourceB, int32(r))
		}
	}
	return positionalJoin(d, si.s, si.t, si.s.verifierAt(si.t))
}

// extendRecordState appends the rank lists, rank values, frequent rows,
// prefix lengths, and (weighted) idf/weight/suffix state for records
// [base, numRecords). Existing records' state is never touched — for
// weighted indexes that makes the new state provisional until
// recomputeWeights, which rewrites all of it under the final corpus.
func (si *StreamIndex) extendRecordState(base int32) {
	s := si.s
	n := int32(s.numRecords())
	if si.weighting == IDFWeighted {
		// Current-corpus idf for tokens that do not have a value yet; the
		// finish pass recomputes every token's idf from the final corpus.
		nf := float64(n)
		for id := len(s.idf); id < s.numTokens; id++ {
			s.idf = append(s.idf, math.Log(1+nf/float64(1+s.df[id])))
		}
	}
	for r := base; r < n; r++ {
		off, end := s.offs[r], s.offs[r+1]
		seg := s.arena[off:end]
		s.rankArena = append(s.rankArena, seg...)
		rseg := s.rankArena[off:end]
		slices.SortFunc(rseg, func(a, b int32) int {
			return cmp.Compare(si.rank[a], si.rank[b])
		})
		for _, tok := range rseg {
			s.rankValArena = append(s.rankValArena, si.rank[tok])
		}
		rl := int32(0)
		var mask uint64
		for i := off; i < end; i++ {
			if v := s.rankValArena[i]; v >= s.freqCut {
				mask |= 1 << uint(v-s.freqCut)
			} else {
				rl = i - off + 1
			}
		}
		s.freqMask = append(s.freqMask, mask)
		s.rareLen = append(s.rareLen, rl)
		if si.weighting == IDFWeighted {
			var total float64
			for _, id := range seg {
				total += s.idf[id]
			}
			s.recWeight = append(s.recWeight, total)
			s.sufArena = append(s.sufArena, make([]float64, len(rseg))...)
			var suf float64
			for i := len(rseg) - 1; i >= 0; i-- {
				s.sufArena[off+int32(i)] = suf
				suf += s.idf[rseg[i]]
			}
		}
		si.runPos = append(si.runPos, 0)
		si.plen = append(si.plen, 0)
		si.iplen = append(si.iplen, 0)
		si.setPrefixLens(r)
	}
}

// setPrefixLens (re)computes record r's probe- and index-prefix lengths
// from its current size/weight.
func (si *StreamIndex) setPrefixLens(r int32) {
	s := si.s
	sz := s.size(r)
	if sz == 0 {
		si.plen[r] = 0
		si.iplen[r] = 0
		return
	}
	if si.weighting == Unweighted {
		si.plen[r] = int32(unweightedPrefixLen(sz, si.t))
		si.iplen[r] = int32(unweightedIndexPrefixLen(sz, si.t))
		return
	}
	w := s.recWeight[r]
	slack := boundSlack * (1 + w)
	si.plen[r] = int32(s.weightedPrefixLenFor(r, si.t*w-slack))
	si.iplen[r] = int32(s.weightedPrefixLenFor(r, 2*si.t/(1+si.t)*w-slack))
}

// buildRun sorts members into processing order and lays their probe
// prefixes out as a CSR posting table (postings sorted by run order, so
// the within-run break works). runPos is updated for every member.
func (si *StreamIndex) buildRun(members []int32) streamRun {
	s := si.s
	slices.SortFunc(members, si.cmpRec)
	run := streamRun{order: members, offs: make([]int32, s.numTokens+1)}
	for _, r := range members {
		off := s.offs[r]
		for _, tok := range s.rankArena[off : off+si.plen[r]] {
			run.offs[tok+1]++
		}
	}
	for i := 1; i < len(run.offs); i++ {
		run.offs[i] += run.offs[i-1]
	}
	run.entries = make([]posting, run.offs[len(run.offs)-1])
	next := slices.Clone(run.offs[:len(run.offs)-1])
	for pos, r := range members {
		si.runPos[r] = int32(pos)
		off := s.offs[r]
		for j, tok := range s.rankArena[off : off+si.plen[r]] {
			run.entries[next[tok]] = posting{rec: r, pos: int32(j)}
			next[tok]++
		}
	}
	return run
}

// compactRuns applies the merge policy: merge the newest two runs while
// the last has reached half its predecessor's size (skew), or while the
// run count exceeds maxStreamRuns.
func (si *StreamIndex) compactRuns() {
	for len(si.runs) > 1 {
		last := len(si.runs) - 1
		if len(si.runs) <= maxStreamRuns && 2*len(si.runs[last].order) < len(si.runs[last-1].order) {
			return
		}
		members := append(si.runs[last-1].order, si.runs[last].order...)
		merged := si.buildRun(members)
		si.runs[last-1] = merged
		si.runs = si.runs[:last]
	}
}

// nextMark advances the probe mark, clearing the mark arrays on the (in
// practice unreachable) int32 wraparound.
func (si *StreamIndex) nextMark() int32 {
	if si.mark == math.MaxInt32 {
		clear(si.seen)
		clear(si.adm)
		si.mark = 0
	}
	si.mark++
	return si.mark
}

// probeRun probes every member of run against the older runs (in full) and
// against run itself (up to the member's own position — the classic
// size-ordered break), returning the emitted pairs unsorted. It is the
// batch engine's probe loop (positional.go) generalized to multiple runs:
// the kill bounds, resume tracking, and verification are unchanged; the
// differences are the both-direction size filter and the per-match
// admission check, both required because a cross-run partner may fall on
// either side of the processing order.
func (si *StreamIndex) probeRun(run *streamRun, older []streamRun) []core.Pair {
	s := si.s
	weighted := si.weighting == IDFWeighted
	t := si.t
	c1 := t / (1 + t)
	n := s.numRecords()
	si.seen = grow(si.seen, n)
	si.adm = grow(si.adm, n)
	si.ov = grow(si.ov, n)
	si.rov = grow(si.rov, n)
	si.rxi = grow(si.rxi, n)
	si.ryj = grow(si.ryj, n)
	si.fsh = grow(si.fsh, n)
	seen, adm, ov := si.seen, si.adm, si.ov
	rov, rxi, ryj, fsh := si.rov, si.rxi, si.ryj, si.fsh
	masks, rareLens := s.freqMask, s.rareLen
	verify := s.verifierAt(t)
	var out []core.Pair
	ownIdx := len(older) // run's slot in the scan sequence
	for _, x := range run.order {
		if si.plen[x] == 0 {
			continue
		}
		offX := s.offs[x]
		prefix := s.rankArena[offX : offX+si.plen[x]]
		pxRun := si.runPos[x]
		szX := float64(s.size(x))
		iplX := si.iplen[x]
		var rlx int32
		var maskX uint64
		if !weighted {
			rlx = rareLens[x]
			maskX = masks[x]
		}
		var wX float64
		if weighted {
			wX = s.recWeight[x]
		}
		mark := si.nextMark()
		cands := si.cands[:0]
		for i, tok := range prefix {
			var remX float64
			if weighted {
				remX = s.sufArena[offX+int32(i)]
			} else {
				remX = szX - float64(i) - 1
			}
			rareRemX := rlx - int32(i) - 1
			if rareRemX < 0 {
				rareRemX = 0
			}
			admX := int32(i) < iplX
			for ri := 0; ri <= ownIdx; ri++ {
				rn := run
				if ri < ownIdx {
					rn = &older[ri]
				}
				for _, pt := range rn.list(tok) {
					y := pt.rec
					if ri == ownIdx && si.runPos[y] >= pxRun {
						break // own-run postings are in processing order
					}
					if si.side != nil && si.side[y] == si.side[x] {
						continue
					}
					var szY float64
					if weighted {
						szY = s.recWeight[y]
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
						// Size filter, both directions: a cross-run partner
						// may be smaller or larger than the probing record.
						var killed bool
						if weighted {
							killed = szY < t*wX-boundSlack*(1+wX) ||
								wX < t*szY-boundSlack*(1+szY)
						} else {
							killed = szY < t*szX-boundSlack ||
								szX < t*szY-boundSlack
						}
						if killed {
							ov[y] = -1
							continue
						}
						ov[y] = 0
						rov[y] = 0
						rxi[y] = -1
						ryj[y] = -1
						if !weighted {
							fsh[y] = int32(bits.OnesCount64(maskX & masks[y]))
						}
						cands = append(cands, y)
					} else if ov[y] < 0 {
						continue // killed earlier; the bound only tightens
					}
					// Admission: qualifying pairs are guaranteed a match
					// inside the processing-order-later record's probe prefix
					// and the earlier record's *index* prefix; matches outside
					// that window still feed the overlap state but do not by
					// themselves admit the candidate.
					later := ri == ownIdx || si.cmpRec(y, x) < 0
					if (later && pt.pos < si.iplen[y]) || (!later && admX) {
						adm[y] = mark
					}
					var remY float64
					if weighted {
						remY = s.sufArena[s.offs[y]+pt.pos]
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
						rxi[y] = int32(i)
						ryj[y] = pt.pos
					} else {
						nrov := rov[y]
						if int32(i) < rlx {
							nrov++
						}
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
							rov[y] = nrov
							rxi[y] = int32(i)
							ryj[y] = pt.pos
						}
					}
					ov[y] = a
				}
			}
		}
		for _, y := range cands {
			if ov[y] < 0 || adm[y] != mark {
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
					a, b = b, a
				}
				out = append(out, core.Pair{A: a, B: b, Likelihood: sim})
			}
		}
		si.cands = cands
	}
	return out
}

// Pairs returns the full candidate set over everything appended so far:
// sorted by likelihood, dense IDs — byte-identical to Candidates over the
// final corpus. Unweighted indexes copy the maintained accumulation and
// also return each pair's slot (slots[id]): the ordinal at which an Append
// emitted the pair, dense and stable for the life of the index, so a
// caller can keep per-pair state across appends while the likelihood
// positions (and with them the IDs) shift. Weighted indexes recompute the
// corpus-global idf state and re-probe (see the package comment on
// provisional weighted deltas); their pairs have no stable identity and
// slots is nil.
func (si *StreamIndex) Pairs() (pairs []core.Pair, slots []int32) {
	if si.weighting == Unweighted {
		pairs = make([]core.Pair, len(si.acc))
		slots = make([]int32, len(si.acc))
		copy(pairs, si.acc)
		for i := range pairs {
			slots[i] = int32(pairs[i].ID)
			pairs[i].ID = i
		}
		return pairs, slots
	}
	if si.finished == nil {
		si.finished = si.finishWeighted()
	}
	pairs = make([]core.Pair, len(si.finished))
	copy(pairs, si.finished)
	return pairs, nil
}

// finishWeighted recomputes every corpus-global weight (idf, record
// weights, suffix arenas, prefix lengths) from the final corpus, collapses
// the runs into one, and re-probes the whole index — the weighted finish
// pass. The token arenas, rank lists, and frequent rows are untouched:
// they depend only on the frozen rank order.
func (si *StreamIndex) finishWeighted() []core.Pair {
	s := si.s
	n := s.numRecords()
	nf := float64(n)
	s.idf = grow(s.idf, s.numTokens)
	for id, f := range s.df {
		s.idf[id] = math.Log(1 + nf/float64(1+f))
	}
	s.recWeight = grow(s.recWeight, n)
	s.sufArena = grow(s.sufArena, len(s.rankArena))
	for r := int32(0); r < int32(n); r++ {
		var total float64
		for _, id := range s.tok(r) {
			total += s.idf[id]
		}
		s.recWeight[r] = total
		off := s.offs[r]
		rseg := s.rankTok(r)
		var suf float64
		for i := len(rseg) - 1; i >= 0; i-- {
			s.sufArena[off+int32(i)] = suf
			suf += s.idf[rseg[i]]
		}
	}
	for r := int32(0); r < int32(n); r++ {
		si.setPrefixLens(r)
	}
	members := make([]int32, n)
	for i := range members {
		members[i] = int32(i)
	}
	run := si.buildRun(members)
	si.runs = si.runs[:0]
	pairs := si.probeRun(&run, nil)
	si.runs = append(si.runs, run)
	SortByLikelihood(pairs)
	for i := range pairs {
		pairs[i].ID = i
	}
	return pairs
}
