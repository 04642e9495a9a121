package core

import "fmt"

// Pair is a candidate pair of objects produced by the machine-based pass of
// the hybrid workflow, annotated with the likelihood that the objects match.
type Pair struct {
	// ID indexes the pair in the candidate set. IDs must be dense: a slice
	// of n pairs carries IDs 0..n-1 in some order, so labeling results can
	// be stored in ID-indexed slices.
	ID int
	// A and B are the object ids; A != B.
	A, B int32
	// Likelihood is the machine-estimated probability that A and B match,
	// in [0, 1]. The expected labeling order sorts on it.
	Likelihood float64
}

// String implements fmt.Stringer.
func (p Pair) String() string {
	return fmt.Sprintf("p%d=(%d,%d)@%.3f", p.ID, p.A, p.B, p.Likelihood)
}

// ValidatePairs checks that pairs form a well-formed candidate set over
// numObjects objects: every object id in range, no self pairs, IDs dense and
// unique, likelihoods within [0, 1].
func ValidatePairs(numObjects int, pairs []Pair) error {
	seen := make([]bool, len(pairs))
	for i, p := range pairs {
		if p.ID < 0 || p.ID >= len(pairs) {
			return fmt.Errorf("core: pair at position %d has ID %d outside [0,%d)", i, p.ID, len(pairs))
		}
		if seen[p.ID] {
			return fmt.Errorf("core: duplicate pair ID %d", p.ID)
		}
		seen[p.ID] = true
		if p.A == p.B {
			return fmt.Errorf("core: pair %d is a self pair (%d,%d)", p.ID, p.A, p.B)
		}
		if p.A < 0 || int(p.A) >= numObjects || p.B < 0 || int(p.B) >= numObjects {
			return fmt.Errorf("core: pair %d references object outside [0,%d)", p.ID, numObjects)
		}
		// Phrased so that NaN, which fails every comparison, fails the check.
		if !(p.Likelihood >= 0 && p.Likelihood <= 1) {
			return fmt.Errorf("core: pair %d has likelihood %v outside [0,1]", p.ID, p.Likelihood)
		}
	}
	return nil
}

// Result is the outcome of labeling a candidate set. All slices are indexed
// by Pair.ID.
type Result struct {
	// Labels holds the final label of every pair (never Unlabeled on a
	// successful run).
	Labels []Label
	// Crowdsourced marks the pairs whose labels came from the crowd; the
	// rest were deduced via transitive relations.
	Crowdsourced []bool
	// NumCrowdsourced and NumDeduced partition the candidate set.
	NumCrowdsourced int
	NumDeduced      int
}

func newResult(n int) *Result {
	return &Result{
		Labels:       make([]Label, n),
		Crowdsourced: make([]bool, n),
	}
}
