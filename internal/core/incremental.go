package core

import (
	"crowdjoin/internal/clustergraph"
)

// IncrementalScanner computes Algorithm 3's crowdsourceable set for the
// rounds of the parallel driver, fused with Algorithm 2's deduction.
//
// The scan's state at position i depends only on positions < i, and labels
// are final once set, so the prefix of the order that is fully labeled
// replays identically in every future scan. The scanner therefore keeps a
// persistent base graph that it advances past that labeled prefix exactly
// once — every label change happens at or after the first unlabeled
// position, so the base can never be invalidated — and each scan copies
// the base into a scratch graph (one O(n + edges) memcpy) and replays only
// the suffix from the first unlabeled position onward. Symmetrically, the
// scan stops at the last position that can still hold an unlabeled pair
// (non-increasing, for the same reason): nothing after it can be selected
// or deduced, and nothing after it needs the scan state. A rescan whose
// active window has shrunk to [f, t) costs O(n + t - f) instead of the
// O(P) full rebuild.
//
// Between parallel rounds every published pair has been answered, so the
// base advances at least past the round's first non-matching answer, the
// earliest position a rollback could restart from. Advancing a base is
// therefore the better fit here: a rollback variant measured 2.24 ms
// against this scanner's 2.01 ms on Paper@0.3 (DESIGN.md). The platform
// driver's base cannot pass its earliest published-but-unanswered pair,
// which is why it uses resumableScan instead.
type IncrementalScanner struct {
	order []Pair
	// base holds the scan state of order[:pos], all labeled with final
	// labels; pos is the first position the base has not absorbed.
	base *clustergraph.Graph
	pos  int
	// limit is one past the last position that held an unlabeled pair in
	// the previous scan; later positions are labeled forever and their
	// state is needed by nothing that follows them.
	limit int
	// scratch receives base's state each scan and replays the suffix.
	scratch *clustergraph.Graph
	// posLabels mirrors the caller's by-ID label slice in order position,
	// so the scan loop reads labels sequentially instead of hopping
	// through the ID permutation. The caller reports every label it
	// assigns through NoteLabel; labels the scan deduces itself are
	// mirrored internally.
	posLabels []Label
	posByID   []int32
	// OnDeduce, when non-nil, is invoked for every pair the fused scan
	// deduces itself (progress reporting); set before the first scan.
	OnDeduce func(Pair, Label)
}

// NewIncrementalScanner prepares a scanner for the given order, with every
// pair unlabeled.
func NewIncrementalScanner(numObjects int, order []Pair) *IncrementalScanner {
	s := &IncrementalScanner{
		order:     order,
		base:      clustergraph.New(numObjects),
		limit:     len(order),
		scratch:   clustergraph.New(numObjects),
		posLabels: make([]Label, len(order)),
		posByID:   make([]int32, len(order)),
	}
	for pos, p := range order {
		s.posByID[p.ID] = int32(pos)
	}
	return s
}

// NoteLabel records that the pair with the given ID now carries l. The
// caller must invoke it for every label it assigns outside the scan (crowd
// answers, including conflict overrides).
func (s *IncrementalScanner) NoteLabel(id int, l Label) {
	s.posLabels[s.posByID[id]] = l
}

// scan is the Algorithm 3 kernel of the fused parallel driver. Each
// still-unlabeled pair is first checked against the crowd-label graph dedG
// with the precomputed roots (Algorithm 2's deduction phase fused into the
// same pass); a deduced pair's label is written into labels (and the
// mirror) and counted in the returned total, and the scan then treats the
// pair as labeled.
// The returned batch is freshly allocated: it is handed to BatchOracle
// implementations, which may retain it.
func (s *IncrementalScanner) scan(labels []Label, dedG *clustergraph.Graph, dedRoots []int32) (out []Pair, deduced int) {
	// Advance the base past the labeled prefix; these positions replay
	// identically forever, so this work happens once per position. An
	// unlabeled pair that deduction can label right now is final too, so
	// it joins the base instead of stopping the advance — the base halts
	// only at the first pair that must be crowdsourced, which is always
	// the first member of the next batch.
	for s.pos < len(s.order) {
		p := s.order[s.pos]
		l := s.posLabels[s.pos]
		if l == Unlabeled {
			if l = s.deduce(labels, s.pos, dedG, dedRoots); l == Unlabeled {
				break
			}
			deduced++
		}
		s.base.ForceInsert(p.A, p.B, l == Matching)
		s.pos++
	}
	g := s.base.CloneInto(s.scratch)

	// The reused prefix needs no re-emission: every pair it selected was
	// answered in an earlier round.
	hi := s.limit
	newLimit := s.pos
	for pos := s.pos; pos < hi; pos++ {
		p := s.order[pos]
		l := s.posLabels[pos]
		if l == Unlabeled {
			if l = s.deduce(labels, pos, dedG, dedRoots); l != Unlabeled {
				deduced++
			}
		}
		switch l {
		case Matching:
			g.ForceInsert(p.A, p.B, true)
		case NonMatching:
			g.ForceInsert(p.A, p.B, false)
		default:
			newLimit = pos + 1
			// Assume fuses the optimistic deduction with the matching
			// insert Algorithm 3 performs on undeduced pairs.
			if g.Assume(p.A, p.B) == clustergraph.Undeduced {
				out = append(out, p)
			}
		}
	}
	s.limit = newLimit
	return out, deduced
}

// deduce labels the unlabeled pair at pos from the crowd-label graph dedG
// when it can, in labels and the mirror, and returns the label (Unlabeled
// when the pair is not deducible).
func (s *IncrementalScanner) deduce(labels []Label, pos int, dedG *clustergraph.Graph, dedRoots []int32) Label {
	p := s.order[pos]
	var l Label
	switch dedG.DeduceRoots(dedRoots[p.A], dedRoots[p.B]) {
	case clustergraph.DeducedMatching:
		l = Matching
	case clustergraph.DeducedNonMatching:
		l = NonMatching
	default:
		return Unlabeled
	}
	labels[p.ID] = l
	s.posLabels[pos] = l
	if s.OnDeduce != nil {
		s.OnDeduce(p, l)
	}
	return l
}

// resumableScan computes Algorithm 3's crowdsourceable set for one platform
// shard, excluding the pairs already published (Section 5.2), each time the
// instant-decision driver asks for it. Pair IDs are order positions, as in
// every Shard.
//
// It keeps one scan graph for the whole session, journaled with
// Snapshot/Rollback: marks[pos] is the graph state before position pos was
// replayed, and verdict[pos] is what Assume decided at a position that was
// unlabeled when last replayed. The driver reports every label it assigns
// through note. A new label changes the scan only where it flips what the
// scan did at that position: NonMatching where Assume merged the pair as a
// match (Undeduced), or Matching where Assume found it deduced
// non-matching. For any other label, ForceInsert leaves the graph exactly
// as Assume did, so the scan state at every later position is unchanged.
//
// A scan therefore rolls back to the first dirty position's mark and
// replays from there. Nothing before it needs replaying: the graph up to
// it is what a from-scratch scan would build, and every earlier position
// that is unlabeled and undeduced was returned by an earlier scan and is
// published now. A scan with no dirty position returns nothing without
// touching the graph. As in IncrementalScanner, the replay stops at the
// last position that held an unlabeled pair.
type resumableScan struct {
	order   []Pair
	g       *clustergraph.Graph
	marks   []clustergraph.Mark
	verdict []clustergraph.Verdict
	// dirty is the first position whose label changed the scan since the
	// last replay; limit when there is none.
	dirty int
	// limit bounds the replay: no position at or past it held an
	// unlabeled pair in the last scan, so no label there can change.
	limit int
}

// newResumableScan prepares the scan of a shard's order, with every pair
// unlabeled.
func newResumableScan(numObjects int, order []Pair) *resumableScan {
	return &resumableScan{
		order:   order,
		g:       clustergraph.New(numObjects),
		marks:   make([]clustergraph.Mark, len(order)),
		verdict: make([]clustergraph.Verdict, len(order)),
		limit:   len(order),
	}
}

// note records that the pair at position pos now carries l.
func (s *resumableScan) note(pos int, l Label) {
	if pos >= s.dirty {
		return
	}
	switch s.verdict[pos] {
	case clustergraph.Undeduced:
		if l == NonMatching {
			s.dirty = pos
		}
	case clustergraph.DeducedNonMatching:
		if l == Matching {
			s.dirty = pos
		}
	}
}

// scan returns the pairs that must be crowdsourced given labels (by
// position) and are not yet published. Callers publish everything it
// returns before the next scan. The batch is freshly allocated: it is
// handed to Platform implementations, which may retain it.
func (s *resumableScan) scan(labels []Label, published []bool) []Pair {
	if s.dirty >= s.limit {
		return nil
	}
	s.g.Rollback(s.marks[s.dirty])
	var out []Pair
	hi := s.limit
	s.limit = s.dirty
	for pos := s.dirty; pos < hi; pos++ {
		s.marks[pos] = s.g.Snapshot()
		p := s.order[pos]
		switch labels[pos] {
		case Matching:
			s.g.ForceInsert(p.A, p.B, true)
		case NonMatching:
			s.g.ForceInsert(p.A, p.B, false)
		default:
			s.limit = pos + 1
			v := s.g.Assume(p.A, p.B)
			s.verdict[pos] = v
			if v == clustergraph.Undeduced && !published[pos] {
				out = append(out, p)
			}
		}
	}
	s.dirty = s.limit
	return out
}
