package core

import (
	"errors"
	"fmt"

	"crowdjoin/internal/clustergraph"
)

// Rules are the sequential labeler's ways of labeling a pair without the
// crowd beyond transitive deduction: the paper's Section 8 extensions. The
// zero value is the Section 3.2 labeler.
type Rules struct {
	// OneToOne adds the one-to-one matching constraint for joins between
	// two duplicate-free sources: each record matches at most one record,
	// so a matching answer for (a, b) also implies non-matching for every
	// other pair touching a or b. The constraint is an assumption about the
	// data, not a theorem: if a source does contain duplicates,
	// constraint-deduced labels can be wrong even with a perfect crowd.
	OneToOne bool
	// Budget, when set, caps the crowdsourced pairs. It cannot be combined
	// with OneToOne.
	Budget *Budget
}

// Budget is the money/quality trade-off the paper's Section 8 leaves as
// future work (cf. Whang et al.'s budgeted question selection): at most
// Limit pairs are crowdsourced; once the budget is spent, undeducible pairs
// fall back to the machine guess likelihood ≥ GuessThreshold → matching.
type Budget struct {
	Limit          int
	GuessThreshold float64
}

// validate refuses a negative budget and one-to-one under a budget.
func (r Rules) validate() error {
	if r.Budget == nil {
		return nil
	}
	if r.OneToOne {
		return errors.New("core: the one-to-one constraint cannot run under a budget")
	}
	if r.Budget.Limit < 0 {
		return fmt.Errorf("core: negative budget %d", r.Budget.Limit)
	}
	return nil
}

// SequentialResult extends Result with the labels the rules added.
type SequentialResult struct {
	Result
	// Guessed marks pairs labeled by thresholding the likelihood after the
	// budget ran out, indexed by Pair.ID; nil without a budget.
	Guessed []bool
	// NumGuessed counts them.
	NumGuessed int
	// NumConstraintDeduced counts pairs labeled non-matching because one of
	// their objects was already matched to someone else.
	NumConstraintDeduced int
}

func newSequentialResult(n int, rules Rules) *SequentialResult {
	res := &SequentialResult{Result: *newResult(n)}
	if rules.Budget != nil {
		res.Guessed = make([]bool, n)
	}
	return res
}

// LabelSequentialRun runs the paper's simple one-pair-at-a-time labeling
// algorithm (Section 3.2): walk the order, deduce each pair from the already
// labeled pairs where transitive relations allow, and crowdsource it via the
// oracle otherwise. The rules add the one-to-one constraint as a second way
// to label a pair for free, or a budget past which undeducible pairs are
// guessed. Guessed labels never enter the deduction graph: they are
// low-confidence and would otherwise contaminate the closure.
//
// The session options add context cancellation (partial result + ctx
// error, see RunOpts.Ctx) and progress events. The cancellation sweep
// applies deduction and the one-to-one constraint but never guesses, so
// unreached pairs stay Unlabeled and a cancelled budget run is
// distinguishable from a completed one.
//
// Pair IDs in order must be dense (a permutation of 0..len(order)-1).
func LabelSequentialRun(numObjects int, order []Pair, oracle Oracle, rules Rules, ro RunOpts) (*SequentialResult, error) {
	if err := ValidatePairs(numObjects, order); err != nil {
		return nil, err
	}
	if err := rules.validate(); err != nil {
		return nil, err
	}
	return labelSequential(numObjects, order, oracle, rules, ro)
}

// labelSequential is LabelSequentialRun on an order and rules already
// validated, as a partition's shards are.
func labelSequential(numObjects int, order []Pair, oracle Oracle, rules Rules, ro RunOpts) (*SequentialResult, error) {
	res := newSequentialResult(len(order), rules)
	g := clustergraph.New(numObjects)
	var matched []bool
	if rules.OneToOne {
		matched = make([]bool, numObjects)
	}
	// deduced records a label the graph implies; constrained records the
	// one-to-one constraint's non-matching label for an undeduced pair
	// with an endpoint already matched to a different record (the same
	// record would have been deduced matching). Feeding it to the graph
	// lets negative transitivity build on it; the insert cannot conflict,
	// since the graph left the pair undeduced.
	deduced := func(p Pair, l Label) {
		res.Labels[p.ID] = l
		res.NumDeduced++
		ro.emitPair(EventPairDeduced, p, l)
	}
	constrained := func(p Pair) bool {
		if matched == nil || !(matched[p.A] || matched[p.B]) {
			return false
		}
		res.Labels[p.ID] = NonMatching
		res.NumConstraintDeduced++
		_ = g.InsertNonMatching(p.A, p.B)
		ro.emitPair(EventPairConstraintDeduced, p, NonMatching)
		return true
	}
	// sweep labels what deduction and the constraint decide among the
	// pairs a cancelled run did not reach; it never guesses.
	sweep := func(rest []Pair) {
		for _, p := range rest {
			if v := g.Deduce(p.A, p.B); v != clustergraph.Undeduced {
				deduced(p, LabelOf(v == clustergraph.DeducedMatching))
			} else {
				constrained(p)
			}
		}
	}
	for i, p := range order {
		if err := ro.err(); err != nil {
			sweep(order[i:])
			return res, err
		}
		if v := g.Deduce(p.A, p.B); v != clustergraph.Undeduced {
			deduced(p, LabelOf(v == clustergraph.DeducedMatching))
			continue
		}
		if constrained(p) {
			continue
		}
		if b := rules.Budget; b != nil && res.NumCrowdsourced >= b.Limit {
			l := LabelOf(p.Likelihood >= b.GuessThreshold)
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
				sweep(order[i:])
				return res, cerr
			}
			return nil, err
		}
		// An undeduced pair joins two clusters with no edge between
		// them, so inserting either answer cannot conflict.
		if err := g.Insert(p.A, p.B, l == Matching); err != nil {
			return nil, fmt.Errorf("core: sequential labeling: %w", err)
		}
		if matched != nil && l == Matching {
			matched[p.A], matched[p.B] = true, true
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
	res, err := LabelSequentialRun(numObjects, order, oracle, Rules{}, RunOpts{})
	if err != nil {
		return 0, err
	}
	return res.NumCrowdsourced, nil
}
