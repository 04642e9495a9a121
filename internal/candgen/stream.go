package candgen

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
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
// Appends run on the batch engine's probe driver (positionalShards, on
// every CPU once the batch is large enough) over a positionalSet view of
// the index: its probe-prefix lengths, the runs' orders laid end to end
// in place of the global order (so every older run precedes the new
// records and is scanned in full), and the older runs' tables. Runs
// store *probe* prefixes (n − ⌈t·n⌉ + 1 tokens), not the tighter index
// prefixes the batch engine indexes, because a cross-run probe can meet a
// partner from either side of the processing order: if the probing
// record x is globally later than y, the prefix lemma guarantees a match
// between x's probe prefix and y's index prefix; if x is globally
// *earlier* (a small record arriving after a large one), the roles flip
// and the guaranteed match is between x's index prefix and y's probe
// prefix. Storing probe prefixes covers both directions, and the kernel's
// size filter runs both ways. Everything else — positional kill bounds,
// frequent-row bitsets, overlap-resumed verification — is phrased in
// per-record rank positions, which runs do not alter. The first batch of
// an empty index and the weighted finish join every record at once on the
// batch engine (joinAll).
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
// Pairs() recomputes idf/recWeight/suffix arenas in place, collapses the
// runs into one, and joins the whole corpus on the batch engine — exact
// versus a from-scratch batch join, at the cost of one full join per
// finish.

// maxStreamRuns bounds how many runs a probe walks per token; exceeding it
// forces newest-first merging regardless of the size ratio.
const maxStreamRuns = 8

// streamRun is one size-sorted run: a disjoint set of records sorted by
// the global (size, id) processing relation, with a posting table over the
// members' probe prefixes. The table covers the token universe at build
// time; tokens introduced later cannot appear in the run's records.
type streamRun struct {
	order []int32 // members, processing order
	index positionalIndex
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

	plen []int32 // probe-prefix length per record
	side []uint8 // bipartite source per record; nil for unipartite
	runs []streamRun
	// pos[r] is r's position in the runs' orders laid end to end, oldest
	// run first: every member of an older run precedes every member of a
	// newer one, and within a run pos follows the run's order.
	pos []int32

	// acc is the accumulated candidate set in SortByLikelihood order
	// (unweighted only: deltas there are final and pairwise disjoint, so
	// Pairs is one copy), each pair's ID holding its slot. finished caches
	// a weighted finish until the next append.
	acc      []core.Pair
	finished []core.Pair
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
// against all existing runs (and each other) on the batch engine's probe
// driver, and fold the batch into the run set per the merge policy. It
// returns the candidate pairs this batch added — final for unweighted
// indexes, provisional (current-idf) for weighted ones — sorted by
// likelihood, with no IDs assigned (Pairs owns the dense numbering). The
// first batch of an empty index is joined whole (see joinAll). sides must
// have one 0/1 entry per text for bipartite indexes and must be nil
// otherwise.
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
		delta = si.joinAll()
	} else {
		older := make([]*positionalIndex, len(si.runs))
		for i := range si.runs {
			older[i] = &si.runs[i].index
		}
		ps := &positionalSet{s: s, t: si.t, plen: si.plen, pos: si.pos, side: si.side,
			recW: s.recWeight, sufW: s.sufArena, older: older}
		js := s.getScratch()
		delta = positionalShards(ps, &run.index, run.order, s.verifierAt(si.t), probeWorkers(len(run.order), runtime.GOMAXPROCS(0)), js)
		s.putScratch(js)
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

// joinAll joins every record of the index on the batch engine
// (positionalJoin, probed on every CPU) over the index's own scorer state:
// the first batch of an empty index, and the weighted finish. It emits
// exactly the pairs at or above the threshold, in SortByLikelihood order
// with dense IDs. The run table it leaves alone: the caller builds it, for
// later appends to probe.
func (si *StreamIndex) joinAll() []core.Pair {
	d := &dataset.Dataset{Bipartite: si.bipartite}
	for r, sd := range si.side {
		if sd == 1 {
			d.SourceB = append(d.SourceB, int32(r))
		}
	}
	return positionalJoin(d, si.s, si.t, si.s.verifierAt(si.t))
}

// extendRecordState appends the rank lists, rank values, frequent rows,
// probe-prefix lengths, and (weighted) idf/weight/suffix state for records
// [base, numRecords). Existing records' state is never touched — for
// weighted indexes that makes the new state provisional until
// finishWeighted, which rewrites all of it under the final corpus.
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
		si.pos = append(si.pos, 0)
		plen, _ := s.prefixLens(r, si.t)
		si.plen = append(si.plen, plen)
	}
}

// buildRun sorts members into processing order and lays their probe
// prefixes out as a posting table (postings sorted by run order, so the
// within-run break works). The run it builds is the last one — a new
// batch, the merge of the last two, or the weighted finish's only run —
// so the members' positions start after every record of the runs before
// it; pos is updated for every member.
func (si *StreamIndex) buildRun(members []int32) streamRun {
	slices.SortFunc(members, si.s.cmpRec)
	base := int32(si.s.numRecords() - len(members))
	for i, r := range members {
		si.pos[r] = base + int32(i)
	}
	run := streamRun{order: members}
	run.index.fill(si.s, members, si.plen, nil)
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

// Pairs returns the full candidate set over everything appended so far:
// sorted by likelihood, dense IDs — byte-identical to Candidates over the
// final corpus. Unweighted indexes copy the maintained accumulation and
// also return each pair's slot (slots[id]): the ordinal at which an Append
// emitted the pair, dense and stable for the life of the index, so a
// caller can keep per-pair state across appends while the likelihood
// positions (and with them the IDs) shift. Weighted indexes recompute the
// corpus-global idf state and re-probe (see the package comment on
// provisional weighted deltas) and join the whole corpus again; their
// pairs have no stable identity and slots is nil.
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
// weights, suffix arenas, probe-prefix lengths) from the final corpus,
// collapses the runs into one, and joins the whole index on the batch
// engine — the weighted finish pass. The token arenas, rank lists, and
// frequent rows are untouched: they depend only on the frozen rank order.
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
	members := make([]int32, n)
	for r := range members {
		members[r] = int32(r)
		si.plen[r], _ = s.prefixLens(int32(r), si.t)
	}
	si.runs = append(si.runs[:0], si.buildRun(members))
	return si.joinAll()
}
