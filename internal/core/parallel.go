package core

import "crowdjoin/internal/clustergraph"

// CrowdsourceablePairs implements Algorithm 3 (ParallelCrowdsourcedPairs):
// given the labeling order and the labels obtained so far (Unlabeled where
// unknown, indexed by Pair.ID), it returns the pairs that must be
// crowdsourced no matter how the remaining unlabeled pairs turn out.
//
// The scan walks the order once, inserting labeled pairs with their actual
// labels and optimistically assuming every unlabeled pair is matching: if a
// pair is undeducible even under that assumption — which minimizes the
// number of non-matching pairs on every path — it is undeducible under any
// completion, so it is safe to crowdsource immediately.
func CrowdsourceablePairs(numObjects int, order []Pair, labels []Label) ([]Pair, error) {
	if err := ValidatePairs(numObjects, order); err != nil {
		return nil, err
	}
	scratch := clustergraph.New(numObjects)
	return crowdsourceable(scratch, order, labels, nil), nil
}

// crowdsourceable is the allocation-conscious kernel behind
// CrowdsourceablePairs. scratch must be an empty (or Reset) graph sized to
// the object universe. If skip is non-nil, pairs whose IDs are marked true
// are still assumed matching but excluded from the returned set — this is
// the "excluding the already published pairs" modification of Section 5.2.
//
// Inserts use ForceInsert because the optimistic all-matching assumption can
// contradict actual labels encountered later in the scan; the graph then
// tracks minimum non-matching counts rather than a consistent labeling.
func crowdsourceable(scratch *clustergraph.Graph, order []Pair, labels []Label, skip []bool) []Pair {
	var out []Pair
	for _, p := range order {
		switch labels[p.ID] {
		case Matching:
			scratch.ForceInsert(p.A, p.B, true)
		case NonMatching:
			scratch.ForceInsert(p.A, p.B, false)
		default:
			// Assume deduces the pair and, when undeduced, supposes it is
			// matching (Algorithm 3, line 11) in one fused step. A
			// deducible pair's label is determined by earlier pairs, so
			// the graph already carries its information.
			if scratch.Assume(p.A, p.B) != clustergraph.Undeduced {
				continue
			}
			if skip == nil || !skip[p.ID] {
				out = append(out, p)
			}
		}
	}
	return out
}
