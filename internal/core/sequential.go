package core

import (
	"fmt"

	"crowdjoin/internal/clustergraph"
)

// LabelSequentialRun runs the paper's simple one-pair-at-a-time labeling
// algorithm (Section 3.2): walk the order, deduce each pair from the already
// labeled pairs where transitive relations allow, and crowdsource it via the
// oracle otherwise. The session options add context cancellation (partial
// result + ctx error, see RunOpts.Ctx) and progress events.
//
// Pair IDs in order must be dense (a permutation of 0..len(order)-1).
func LabelSequentialRun(numObjects int, order []Pair, oracle Oracle, ro RunOpts) (*Result, error) {
	r, err := labelSequentialRun(numObjects, order, oracle, -1, 0, ro)
	if r == nil {
		return nil, err
	}
	return &r.Result, err
}

// labelSequentialRun is the sequential loop behind LabelSequentialRun and
// LabelWithBudgetRun. A budget >= 0 caps the crowdsourced pairs: once it is
// spent, undeducible pairs are guessed from their likelihood (≥
// guessThreshold → matching) and marked in Guessed. A negative budget is
// unlimited and leaves Guessed nil.
func labelSequentialRun(numObjects int, order []Pair, oracle Oracle, budget int, guessThreshold float64, ro RunOpts) (*BudgetResult, error) {
	if err := ValidatePairs(numObjects, order); err != nil {
		return nil, err
	}
	res := &BudgetResult{Result: *newResult(len(order))}
	if budget >= 0 {
		res.Guessed = make([]bool, len(order))
	}
	g := clustergraph.New(numObjects)
	for i, p := range order {
		if err := ro.err(); err != nil {
			deduceRemaining(g, order[i:], &res.Result, ro)
			return res, err
		}
		switch g.Deduce(p.A, p.B) {
		case clustergraph.DeducedMatching:
			res.Labels[p.ID] = Matching
			res.NumDeduced++
			ro.emitPair(EventPairDeduced, p, Matching)
			continue
		case clustergraph.DeducedNonMatching:
			res.Labels[p.ID] = NonMatching
			res.NumDeduced++
			ro.emitPair(EventPairDeduced, p, NonMatching)
			continue
		}
		if budget >= 0 && res.NumCrowdsourced >= budget {
			// Guessed labels never enter the deduction graph: they are
			// low-confidence and would otherwise contaminate the closure.
			l := LabelOf(p.Likelihood >= guessThreshold)
			res.Labels[p.ID] = l
			res.Guessed[p.ID] = true
			res.NumGuessed++
			ro.emitPair(EventPairGuessed, p, l)
			continue
		}
		l := oracle.Label(p)
		if err := checkAnswer(p, l); err != nil {
			// A context-cancelling oracle wrapper (rate limiter, budget
			// guard) cancels the session and then has no real answer to
			// return; the cancellation contract applies, not the
			// invalid-answer error.
			if cerr := ro.err(); cerr != nil {
				deduceRemaining(g, order[i:], &res.Result, ro)
				return res, cerr
			}
			return nil, err
		}
		// An undeduced pair joins two clusters with no edge between
		// them, so inserting either answer cannot conflict.
		if err := g.Insert(p.A, p.B, l == Matching); err != nil {
			return nil, fmt.Errorf("core: sequential labeling: %w", err)
		}
		res.Labels[p.ID] = l
		res.Crowdsourced[p.ID] = true
		res.NumCrowdsourced++
		ro.emitPair(EventPairCrowdsourced, p, l)
	}
	return res, nil
}

// CountCrowdsourced runs the sequential labeler and returns only the number
// of crowdsourced pairs C(ω) for the given order (Definition 2's objective).
func CountCrowdsourced(numObjects int, order []Pair, oracle Oracle) (int, error) {
	res, err := LabelSequentialRun(numObjects, order, oracle, RunOpts{})
	if err != nil {
		return 0, err
	}
	return res.NumCrowdsourced, nil
}
