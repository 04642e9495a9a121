package core

import "fmt"

// Similarity-banded triage (ROADMAP item "crack the giant component", the
// paper's figs 13–15 cost/quality trade-off): the machine's similarity score
// splits the candidate band into three sub-bands. Pairs whose likelihood
// clears a high-confidence accept band are labeled Matching by the machine,
// pairs below a low-confidence reject band are labeled NonMatching, and only
// the uncertain band in between is crowdsourced. Machine answers flow
// through the standard drivers like crowd answers — the deduction engine
// arbitrates, so the output stays transitively consistent — but they cost no
// crowd questions, and the rejected band's edges thin the candidate graph
// enough to fragment the Paper@0.3 giant component before sharding.

// TriageBands configures similarity-banded triage. The zero value disables
// it (no pair has likelihood > 1, none has likelihood < 0... but see
// Enabled: disabled is represented explicitly as AcceptAbove == 0).
type TriageBands struct {
	// AcceptAbove is the accept band's lower edge: pairs with
	// Likelihood >= AcceptAbove are machine-labeled Matching.
	AcceptAbove float64
	// RejectBelow is the reject band's upper edge: pairs with
	// Likelihood <= RejectBelow are machine-labeled NonMatching.
	RejectBelow float64
}

// Enabled reports whether the bands are active. A zero AcceptAbove would
// accept everything, so it doubles as the disabled marker.
func (b TriageBands) Enabled() bool { return b.AcceptAbove != 0 || b.RejectBelow != 0 }

// Validate checks 0 <= RejectBelow < AcceptAbove <= 1 for enabled bands.
func (b TriageBands) Validate() error {
	if !b.Enabled() {
		return nil
	}
	// Phrased so that NaN, which fails every comparison, fails the check.
	if !(b.RejectBelow >= 0 && b.AcceptAbove <= 1 && b.RejectBelow < b.AcceptAbove) {
		return fmt.Errorf("core: triage bands want 0 <= rejectBelow < acceptAbove <= 1, got accept above %v, reject below %v",
			b.AcceptAbove, b.RejectBelow)
	}
	return nil
}

// Classify returns the machine's answer for a likelihood: Matching in the
// accept band, NonMatching in the reject band, Unlabeled in the uncertain
// band (ask the crowd).
func (b TriageBands) Classify(likelihood float64) Label {
	if !b.Enabled() {
		return Unlabeled
	}
	switch {
	case likelihood >= b.AcceptAbove:
		return Matching
	case likelihood <= b.RejectBelow:
		return NonMatching
	default:
		return Unlabeled
	}
}
