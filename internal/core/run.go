package core

import (
	"context"

	"crowdjoin/internal/clustergraph"
)

// EventKind identifies what a progress Event reports.
type EventKind uint8

const (
	// EventPairCrowdsourced: a pair's label came back from the crowd.
	EventPairCrowdsourced EventKind = iota
	// EventPairDeduced: a pair's label was deduced via transitive relations.
	EventPairDeduced
	// EventPairGuessed: the budget labeler guessed a label from the machine
	// likelihood after the crowdsourcing budget ran out.
	EventPairGuessed
	// EventPairConstraintDeduced: the one-to-one labeler ruled a pair
	// non-matching because one endpoint was already matched.
	EventPairConstraintDeduced
	// EventRoundPublished: a batch of pairs was sent to the crowd (one event
	// per shard round or platform publish; Round and Size are set).
	EventRoundPublished
	// EventConflictOverridden: a crowd answer contradicted the transitive
	// closure of earlier answers and the implied label was kept instead.
	// Label carries the label that was applied.
	EventConflictOverridden
	// EventRecordAppended: a streaming session appended a record batch.
	// Size carries the batch's record count and Round the 0-based append
	// ordinal; Pair and Label are zero.
	EventRecordAppended
	// EventComponentsMerged: an appended candidate pair bridged two
	// established components of the candidate graph. Component carries the
	// surviving (lower) stable component id and Absorbed the id it
	// swallowed.
	EventComponentsMerged
	// EventPairTriaged: the similarity-banded triage layer answered a pair
	// from the machine score instead of the crowd — Label carries the
	// machine's answer (Matching above the accept band, NonMatching below
	// the reject band). The pair still flows through the deduction engine
	// like any crowd answer; EventPairCrowdsourced is not emitted for it.
	EventPairTriaged
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventPairCrowdsourced:
		return "pair-crowdsourced"
	case EventPairDeduced:
		return "pair-deduced"
	case EventPairGuessed:
		return "pair-guessed"
	case EventPairConstraintDeduced:
		return "pair-constraint-deduced"
	case EventRoundPublished:
		return "round-published"
	case EventConflictOverridden:
		return "conflict-overridden"
	case EventRecordAppended:
		return "record-appended"
	case EventComponentsMerged:
		return "components-merged"
	case EventPairTriaged:
		return "pair-triaged"
	default:
		return "EventKind(?)"
	}
}

// Event is one progress notification from a labeling driver. Pair events
// carry the pair and the label that was applied; EventRoundPublished carries
// the 0-based publish index in Round and the batch size in Size (its Pair
// and Label are zero).
type Event struct {
	Kind  EventKind
	Pair  Pair
	Label Label
	Round int
	Size  int
	// Component identifies the connected component of the candidate graph
	// the event's shard owns, on events from the LabelPartitioned* drivers
	// (the round driver included). Unsharded runs leave it 0 (the kernels,
	// and the round driver on a SinglePartition), so it is only meaningful
	// when the caller asked for sharded execution. On
	// EventComponentsMerged it carries the surviving stable component id
	// instead (the IncrementalPartitioner's numbering, not the per-run
	// shard numbering).
	Component int
	// Absorbed is set only on EventComponentsMerged: the stable component
	// id swallowed by Component.
	Absorbed int
}

// RunOpts carries the cross-cutting session concerns — cancellation and
// progress reporting — into the labeling drivers. The zero value is valid:
// never cancelled, no events.
type RunOpts struct {
	// Ctx cancels the labeling loop. A cancelled driver stops consulting
	// the crowd, applies every deduction already implied by the labels it
	// holds (so no crowd answer's information is lost), and returns the
	// partial result together with ctx.Err(): both return values are
	// non-nil. Unreached pairs stay Unlabeled.
	Ctx context.Context
	// Progress, when non-nil, receives one Event per labeling step. It is
	// called synchronously from the labeling loop; a slow subscriber slows
	// the join.
	Progress func(Event)
}

// context returns the run's context, defaulting to the never-cancelled
// root for zero-value RunOpts. Drivers needing a real context (WithCancel,
// AfterFunc) use this instead of rooting their own, so ctxflow can pin
// the repo's only sanctioned interior fallback to this one line.
func (o RunOpts) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	//crowdjoin:ctxbackground the documented zero-value RunOpts contract: no Ctx means never cancelled
	return context.Background()
}

// err returns the context's error, if a context is set and cancelled.
func (o RunOpts) err() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// emitPair reports a per-pair event.
func (o RunOpts) emitPair(kind EventKind, p Pair, l Label) {
	if o.Progress != nil {
		o.Progress(Event{Kind: kind, Pair: p, Label: l})
	}
}

// emitRound reports a round/publish event.
func (o RunOpts) emitRound(round, size int) {
	if o.Progress != nil {
		o.Progress(Event{Kind: EventRoundPublished, Round: round, Size: size})
	}
}

// deduceRemaining labels every still-unlabeled pair in order whose label is
// implied by g — the final sweep that makes a cancelled run's partial result
// consistent: every deduction already paid for by crowd answers is applied,
// and anything left Unlabeled is genuinely undeducible. Deduced labels add
// no information to g's transitive closure, so a single pass suffices.
func deduceRemaining(g *clustergraph.Graph, order []Pair, res *Result, ro RunOpts) {
	for _, p := range order {
		if res.Labels[p.ID] != Unlabeled {
			continue
		}
		var l Label
		switch g.Deduce(p.A, p.B) {
		case clustergraph.DeducedMatching:
			l = Matching
		case clustergraph.DeducedNonMatching:
			l = NonMatching
		default:
			continue
		}
		res.Labels[p.ID] = l
		res.NumDeduced++
		ro.emitPair(EventPairDeduced, p, l)
	}
}
