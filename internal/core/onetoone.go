package core

import (
	"fmt"

	"crowdjoin/internal/clustergraph"
)

// OneToOneResult extends Result with the count of labels deduced from the
// one-to-one constraint rather than from transitive relations.
type OneToOneResult struct {
	Result
	// NumConstraintDeduced counts pairs labeled non-matching because one of
	// their objects was already matched to someone else.
	NumConstraintDeduced int
}

// LabelSequentialOneToOneRun is the sequential labeler augmented with the
// one-to-one matching constraint, one of the paper's Section 8 future-work
// relations: in a join between two duplicate-free sources, each record
// matches at most one record, so a matching answer for (a, b) additionally
// implies non-matching for every other pair touching a or b.
//
// The constraint is an assumption about the data, not a theorem: if a
// source does contain duplicates, constraint-deduced labels can be wrong
// even with a perfect crowd. Callers trade that risk for extra savings; the
// ablation bench quantifies both sides on the Product workload.
//
// The session options add context cancellation (partial result + ctx
// error, see RunOpts.Ctx) and progress events. The cancellation sweep
// applies both free inference rules — transitive deduction and the
// one-to-one constraint — before returning.
func LabelSequentialOneToOneRun(numObjects int, order []Pair, oracle Oracle, ro RunOpts) (*OneToOneResult, error) {
	if err := ValidatePairs(numObjects, order); err != nil {
		return nil, err
	}
	res := &OneToOneResult{Result: *newResult(len(order))}
	g := clustergraph.New(numObjects)
	matched := make([]bool, numObjects)
	// free labels a pair without consulting the crowd where either
	// transitive relations or the one-to-one constraint decide it, returning
	// false when only the crowd can answer. Shared by the main loop and the
	// cancellation sweep.
	free := func(p Pair) bool {
		switch g.Deduce(p.A, p.B) {
		case clustergraph.DeducedMatching:
			res.Labels[p.ID] = Matching
			res.NumDeduced++
			ro.emitPair(EventPairDeduced, p, Matching)
			return true
		case clustergraph.DeducedNonMatching:
			res.Labels[p.ID] = NonMatching
			res.NumDeduced++
			ro.emitPair(EventPairDeduced, p, NonMatching)
			return true
		}
		if matched[p.A] || matched[p.B] {
			// One endpoint is already matched to a different record (the
			// same record would have been deduced matching above), so the
			// constraint forces non-matching. Feed it to the graph so
			// negative transitivity can build on it. The insert cannot
			// conflict: the deduction above ruled out same-cluster.
			res.Labels[p.ID] = NonMatching
			res.NumConstraintDeduced++
			_ = g.InsertNonMatching(p.A, p.B)
			ro.emitPair(EventPairConstraintDeduced, p, NonMatching)
			return true
		}
		return false
	}
	for i, p := range order {
		if err := ro.err(); err != nil {
			for _, q := range order[i:] {
				free(q)
			}
			return res, err
		}
		if free(p) {
			continue
		}
		l := oracle.Label(p)
		if err := checkAnswer(p, l); err != nil {
			// As in the sequential driver: a cancelled session's oracle
			// wrapper may have no real answer; keep the partial result.
			if cerr := ro.err(); cerr != nil {
				for _, q := range order[i:] {
					free(q)
				}
				return res, cerr
			}
			return nil, err
		}
		if err := g.Insert(p.A, p.B, l == Matching); err != nil {
			return nil, fmt.Errorf("core: one-to-one labeling: %w", err)
		}
		if l == Matching {
			matched[p.A] = true
			matched[p.B] = true
		}
		res.Labels[p.ID] = l
		res.Crowdsourced[p.ID] = true
		res.NumCrowdsourced++
		ro.emitPair(EventPairCrowdsourced, p, l)
	}
	return res, nil
}
