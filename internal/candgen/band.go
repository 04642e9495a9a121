package candgen

import (
	"fmt"

	"crowdjoin/internal/core"
	"crowdjoin/internal/dataset"
)

// BandCandidates returns the candidate pairs of d whose likelihood lies in
// the band [lo, hi) — exactly the pairs a multi-threshold cascade stage adds
// when descending from threshold hi to lo, so the stages' bands partition
// Candidates(d, s, floor) without duplicates. Pass hi > 1 for the first
// stage (no upper edge). keep, when non-nil, must be a symmetric predicate;
// pairs for which it returns false are skipped before verification — the
// cascade uses it to stop generating candidates between records already
// settled into entities, which is where the low thresholds would otherwise
// flood. Results are sorted by likelihood descending with dense pair IDs.
//
// The band runs the same positional join as Candidates at threshold lo,
// with the band's upper edge and the keep filter folded into the verifier
// — repeated bands over one scorer reuse its rank arenas and pooled
// scratch rather than rebuilding anything.
func BandCandidates(d *dataset.Dataset, s *Scorer, lo, hi float64, keep func(a, b int32) bool) ([]core.Pair, error) {
	if err := checkThreshold("band floor", lo); err != nil {
		return nil, err
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("candgen: band [%v, %v) is empty", lo, hi)
	}
	inner := s.verifierAt(lo)
	verify := func(x, y int32, rs resume) (float64, bool) {
		if keep != nil && !keep(x, y) {
			return 0, false
		}
		sim, ok := inner(x, y, rs)
		return sim, ok && sim < hi
	}
	return positionalJoin(d, s, lo, verify), nil
}
