package core

import "fmt"

// BudgetResult extends Result with the pairs whose labels were guessed from
// the machine likelihood after the crowdsourcing budget ran out.
type BudgetResult struct {
	Result
	// Guessed marks pairs labeled by thresholding the likelihood rather
	// than by the crowd or by deduction, indexed by Pair.ID.
	Guessed []bool
	// NumGuessed counts them.
	NumGuessed int
}

// LabelWithBudgetRun is the sequential labeler under a crowdsourcing budget
// — the money/quality trade-off the paper's Section 8 leaves as future work
// (cf. Whang et al.'s budgeted question selection): at most budget pairs
// are crowdsourced; once the budget is spent, undeducible pairs fall back
// to the machine guess likelihood ≥ guessThreshold → matching.
//
// Guessed labels never enter the deduction graph: they are low-confidence
// and would otherwise contaminate transitive closure.
//
// The session options add context cancellation (partial result + ctx
// error, see RunOpts.Ctx) and progress events. Cancellation does not
// guess: the sweep applies only the deductions the collected answers
// imply, so unreached pairs stay Unlabeled and the partial result is
// distinguishable from a completed budget run.
func LabelWithBudgetRun(numObjects int, order []Pair, oracle Oracle, budget int, guessThreshold float64, ro RunOpts) (*BudgetResult, error) {
	if budget < 0 {
		return nil, fmt.Errorf("core: negative budget %d", budget)
	}
	return labelSequentialRun(numObjects, order, oracle, budget, guessThreshold, ro)
}
