package crowdjoin

import (
	"errors"
	"fmt"

	"crowdjoin/internal/core"
)

// Similarity-banded triage at the session level: WithTriage splits the
// candidate band by the machine similarity the candidate generator already
// computed. Pairs at or above the accept band are answered Matching by the
// machine, pairs at or below the reject band answered NonMatching, and only
// the uncertain band in between ever reaches the configured crowd backend.
// Machine answers flow through the standard drivers exactly like crowd
// answers — the deduction engine still arbitrates, and a banded pair that is
// deduced before the driver would have asked it is simply never consulted —
// but they are reported as EventPairTriaged instead of EventPairCrowdsourced,
// excluded from NumCrowdsourced, and never journaled (they are deterministic
// from the input and the bands, so a resumed session re-derives them for
// free).

// TriageBands re-exports the band configuration (see WithTriage).
type TriageBands = core.TriageBands

// WithTriage enables similarity-banded triage: pairs with likelihood ≥
// acceptAbove are machine-labeled Matching, pairs ≤ rejectBelow are
// machine-labeled NonMatching, and only the band in between is
// crowdsourced. Pass rejectBelow = 0 for accept-only triage (no candidate
// has likelihood ≤ 0). Requires 0 ≤ rejectBelow < acceptAbove ≤ 1;
// incompatible with BudgetStrategy (the budget meters crowd questions, and
// machine answers would consume it).
func WithTriage(acceptAbove, rejectBelow float64) JoinOption {
	return func(j *Join) {
		b := core.TriageBands{AcceptAbove: acceptAbove, RejectBelow: rejectBelow}
		if !b.Enabled() {
			j.setErr(errors.New("crowdjoin: WithTriage(0, 0) configures no bands; omit the option to disable triage"))
			return
		}
		if err := b.Validate(); err != nil {
			j.setErr(fmt.Errorf("crowdjoin: WithTriage: want 0 <= rejectBelow < acceptAbove <= 1, got accept above %v, reject below %v", acceptAbove, rejectBelow))
			return
		}
		j.triage = b
	}
}

// Router selects how a component-sharded session schedules its shards'
// crowd work (see WithRouter).
type Router uint8

const (
	// LargestFirstRouter is the default: the crowd answers whole shard
	// rounds, up to k at a time, the largest component's first.
	LargestFirstRouter Router = iota
	// BalancedRouter models the crowd as k concurrent workers answering one
	// question at a time and stride-schedules every shard's published rounds
	// across them, weighting each shard's share by its pairs the crowd has
	// not answered yet. A giant component's big rounds spread over all k
	// workers while small components' rounds overlap its crowd latency
	// instead of queueing behind it. Labels and crowd cost are identical to
	// LargestFirstRouter for order-independent crowds.
	BalancedRouter
)

// String implements fmt.Stringer.
func (r Router) String() string {
	switch r {
	case LargestFirstRouter:
		return "largest-first"
	case BalancedRouter:
		return "balanced"
	default:
		return "Router(?)"
	}
}

// WithRouter selects the crowd router for component-sharded sessions
// (default LargestFirstRouter). BalancedRouter requires ParallelStrategy
// with WithConcurrency > 1 — it reschedules parallel rounds across modeled
// crowd workers, which has no meaning for an unsharded or non-round-based
// session.
func WithRouter(r Router) JoinOption {
	return func(j *Join) {
		if r != LargestFirstRouter && r != BalancedRouter {
			j.setErr(fmt.Errorf("crowdjoin: WithRouter(%d): unknown router", r))
			return
		}
		j.router = r
	}
}

// WithCascade enables the multi-threshold blocking cascade: candidates are
// generated at thresholds[0] first and the join runs over that band; then,
// for each further (strictly descending) threshold, candidate generation
// descends only inside still-unresolved clusters — records already settled
// into an entity (joined by a Matching label) stop generating new candidate
// pairs — and the join re-runs over the accumulated band. The session's
// matcher threshold is the final floor: if thresholds ends above it, it is
// descended to implicitly. Earlier stages' crowd answers replay from the
// session journal, so each stage pays only for its new band.
//
// Requires WithTexts or WithTextsAcross (the cascade drives candidate
// generation, so precomputed WithPairs input has nothing to cascade);
// incompatible with BudgetStrategy and with streaming sessions (Append).
func WithCascade(thresholds ...float64) JoinOption {
	return func(j *Join) {
		if len(thresholds) == 0 {
			j.setErr(errors.New("crowdjoin: WithCascade requires at least one threshold"))
			return
		}
		prev := 1.0001
		for _, t := range thresholds {
			if !(t > 0 && t <= 1) {
				j.setErr(fmt.Errorf("crowdjoin: WithCascade threshold %v outside (0,1]", t))
				return
			}
			if t >= prev {
				j.setErr(fmt.Errorf("crowdjoin: WithCascade thresholds must be strictly descending, got %v", thresholds))
				return
			}
			prev = t
		}
		j.cascade = append([]float64(nil), thresholds...)
	}
}

// triageProgress wraps a session progress callback: the driver's
// EventPairCrowdsourced for a banded pair surfaces as EventPairTriaged. A
// banded pair that reaches the answer path always gets the machine's
// answer (the crowd-surface wrappers consult the bands first), and the
// driver emits EventPairCrowdsourced precisely when it records an answer,
// so the translated stream matches the final Triaged flags one to one.
func triageProgress(bands core.TriageBands, inner func(Event)) func(Event) {
	if inner == nil || !bands.Enabled() {
		return inner
	}
	return func(e Event) {
		if e.Kind == core.EventPairCrowdsourced && bands.Classify(e.Pair.Likelihood) != Unlabeled {
			e.Kind = core.EventPairTriaged
		}
		inner(e)
	}
}

// triageFill reconciles the run result: banded pairs the driver recorded
// as answered leave the crowdsourced ledger and land in
// Triaged/TriageAccepted/TriageRejected.
func triageFill(bands core.TriageBands, res *JoinResult) {
	res.Triaged = make([]bool, len(res.Order))
	for _, p := range res.Order {
		l := bands.Classify(p.Likelihood)
		if l == Unlabeled || !res.Crowdsourced[p.ID] {
			continue
		}
		res.Triaged[p.ID] = true
		res.Crowdsourced[p.ID] = false
		res.NumCrowdsourced--
		if l == Matching {
			res.TriageAccepted++
		} else {
			res.TriageRejected++
		}
	}
}

// triageOrder reorders a labeling order for an enabled triage: machine-
// accepted pairs first, then machine-rejected, then the uncertain band,
// each sub-band keeping the configured ordering's relative order. The free
// machine evidence enters the deduction engine before any crowd question is
// asked, so the uncertain band starts from the densest possible cluster
// graph. Allocates a fresh slice — orderings may return their input.
func triageOrder(order []Pair, bands core.TriageBands) []Pair {
	out := make([]Pair, 0, len(order))
	for _, p := range order {
		if bands.Classify(p.Likelihood) == Matching {
			out = append(out, p)
		}
	}
	for _, p := range order {
		if bands.Classify(p.Likelihood) == NonMatching {
			out = append(out, p)
		}
	}
	for _, p := range order {
		if bands.Classify(p.Likelihood) == Unlabeled {
			out = append(out, p)
		}
	}
	return out
}
