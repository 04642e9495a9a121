package core

import (
	"crowdjoin/internal/clustergraph"
)

// resumableScan computes Algorithm 3's crowdsourceable set for one platform
// shard, excluding the pairs already published (Section 5.2), each time the
// driver asks for it. Pair IDs are order positions, as in every Shard.
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
// touching the graph. The replay stops at the last position that held an
// unlabeled pair: nothing after it can be selected or deduced, and nothing
// after it needs the scan state.
//
// In plain mode the driver deduces only when a shard's round has drained,
// and the scan does it (Algorithm 2's deduction fused into Algorithm 3's
// pass): it checks every unlabeled, unpublished pair against the
// crowd-label graph.
// Positions before the dirty one are only checked, since their scan state
// stays valid unless a deduced label flips what the scan did there; such a
// flip moves the dirty mark back to it. Between parallel rounds every
// published pair is answered, so a rollback costs at most the replay of
// the active window from the round's first non-matching answer.
type resumableScan struct {
	order []Pair
	// global[pos] is the pair at pos in the coordinates the platform
	// speaks.
	global  []Pair
	g       *clustergraph.Graph
	marks   []clustergraph.Mark
	verdict []clustergraph.Verdict
	// dirty is the first position whose label changed the scan since the
	// last replay; limit when there is none.
	dirty int
	// limit bounds the replay: no position at or past it held an
	// unlabeled pair in the last scan, so no label there can change.
	limit int
	// first is a position no later than the first unlabeled one: the
	// labeled prefix before it never needs a deduction check again.
	first int
	// deduced is the deducing scan's scratch: the positions the last scan
	// deduced.
	deduced []int32
}

// newResumableScan prepares the scan of a shard's order, with every pair
// unlabeled; global translates positions for the batches it returns.
func newResumableScan(numObjects int, order, global []Pair) *resumableScan {
	return &resumableScan{
		order:   order,
		global:  global,
		g:       clustergraph.New(numObjects),
		marks:   make([]clustergraph.Mark, len(order)),
		verdict: make([]clustergraph.Verdict, len(order)),
		limit:   len(order),
	}
}

// note records that the pair at position pos now carries l.
func (s *resumableScan) note(pos int, l Label) {
	if pos < s.dirty && s.flips(pos, l) {
		s.dirty = pos
	}
}

// flips reports whether labeling the pair at pos with l changes what the
// last replay did there: NonMatching where Assume merged the pair as a
// match, or Matching where Assume found it deduced non-matching.
func (s *resumableScan) flips(pos int, l Label) bool {
	switch s.verdict[pos] {
	case clustergraph.Undeduced:
		return l == NonMatching
	case clustergraph.DeducedNonMatching:
		return l == Matching
	}
	return false
}

// scan returns the pairs that must be crowdsourced given labels (by
// position) and are not yet published, as global pairs, and marks them
// published: callers publish everything it returns before the next scan.
// The batch is freshly allocated: it is handed to Platform
// implementations, which may retain it.
//
// Given the crowd-label graph (plain mode, when a round drained), the scan
// first deduces: every unlabeled, unpublished pair that crowd implies gets
// its label in labels, and its position in deduced, a buffer valid until
// the next scan.
func (s *resumableScan) scan(labels []Label, published []bool, crowd *clustergraph.Graph) (out []Pair, deduced []int32) {
	s.deduced = s.deduced[:0]
	if crowd != nil {
		if s.deduced == nil {
			s.deduced = make([]int32, 0, len(s.order))
		}
		for s.first < s.limit && labels[s.first] != Unlabeled {
			s.first++
		}
		for pos := s.first; pos < s.dirty; pos++ {
			if labels[pos] == Unlabeled && !published[pos] && s.flips(pos, s.deduce(labels, pos, crowd)) {
				s.dirty = pos
			}
		}
	}
	if s.dirty >= s.limit {
		return nil, s.deduced
	}
	s.g.Rollback(s.marks[s.dirty])
	hi := s.limit
	s.limit = s.dirty
	for pos := s.dirty; pos < hi; pos++ {
		s.marks[pos] = s.g.Snapshot()
		p := s.order[pos]
		l := labels[pos]
		if l == Unlabeled && crowd != nil && !published[pos] {
			l = s.deduce(labels, pos, crowd)
		}
		switch l {
		case Matching:
			s.g.ForceInsert(p.A, p.B, true)
		case NonMatching:
			s.g.ForceInsert(p.A, p.B, false)
		default:
			s.limit = pos + 1
			v := s.g.Assume(p.A, p.B)
			s.verdict[pos] = v
			if v == clustergraph.Undeduced && !published[pos] {
				published[pos] = true
				out = append(out, s.global[pos])
			}
		}
	}
	s.dirty = s.limit
	return out, s.deduced
}

// deduce labels the pair at pos from the crowd-label graph when it
// implies a label, recording the position, and returns the label
// (Unlabeled when the pair is undeducible).
func (s *resumableScan) deduce(labels []Label, pos int, crowd *clustergraph.Graph) Label {
	p := s.order[pos]
	var l Label
	switch crowd.Deduce(p.A, p.B) {
	case clustergraph.DeducedMatching:
		l = Matching
	case clustergraph.DeducedNonMatching:
		l = NonMatching
	default:
		return Unlabeled
	}
	labels[pos] = l
	s.deduced = append(s.deduced, int32(pos))
	return l
}
