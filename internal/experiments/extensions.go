package experiments

import (
	"fmt"
	"strings"

	"crowdjoin/internal/core"
	"crowdjoin/internal/metrics"
	"crowdjoin/internal/report"
)

// ExtBudgetRow is one point of the budget/quality trade-off curve.
type ExtBudgetRow struct {
	// BudgetFrac is the crowdsourcing budget as a fraction of the
	// transitive-labeling cost (1.0 = enough budget to finish).
	BudgetFrac float64
	// Budget is the absolute number of crowdsourced pairs allowed.
	Budget int
	// F1 is the resulting quality against ground truth.
	F1 float64
}

// ExtBudgetResult holds the curve per dataset.
type ExtBudgetResult struct {
	Threshold float64
	Paper     []ExtBudgetRow
	Product   []ExtBudgetRow
}

// ExtBudget measures the money/quality trade-off the paper's Section 8
// leaves as future work: label the threshold-0.3 candidates with a perfect
// crowd under shrinking budgets, guessing the remainder from the machine
// likelihood.
func (e *Env) ExtBudget() (*ExtBudgetResult, error) {
	const threshold = 0.3
	res := &ExtBudgetResult{Threshold: threshold}
	for _, wl := range e.Workloads() {
		pairs := wl.W.Candidates(threshold)
		order := core.ExpectedOrder(pairs)
		full, err := core.CountCrowdsourced(wl.W.Dataset.Len(), order, wl.W.Truth)
		if err != nil {
			return nil, fmt.Errorf("extbudget %s: %w", wl.Name, err)
		}
		trueMatches := wl.W.Dataset.TrueMatchingPairs()
		entities := wl.W.Dataset.Entities()
		for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
			budget := int(frac * float64(full))
			rules := core.Rules{Budget: &core.Budget{Limit: budget, GuessThreshold: 0.5}}
			run, err := core.LabelSequentialRun(wl.W.Dataset.Len(), order, wl.W.Truth, rules, core.RunOpts{})
			if err != nil {
				return nil, fmt.Errorf("extbudget %s budget %d: %w", wl.Name, budget, err)
			}
			q := metrics.Evaluate(pairs, run.Labels, entities, trueMatches)
			row := ExtBudgetRow{BudgetFrac: frac, Budget: budget, F1: q.F1}
			if wl.Name == "Paper" {
				res.Paper = append(res.Paper, row)
			} else {
				res.Product = append(res.Product, row)
			}
		}
	}
	return res, nil
}

// String renders the curves.
func (r *ExtBudgetResult) String() string {
	var b strings.Builder
	for _, part := range []struct {
		name string
		rows []ExtBudgetRow
	}{{"(a) Paper", r.Paper}, {"(b) Product", r.Product}} {
		f := report.Figure{
			Title: fmt.Sprintf("Extension: budgeted labeling %s (threshold %.1f, perfect crowd)",
				part.name, r.Threshold),
			XLabel: "budget (fraction of full transitive cost)",
			YLabel: "F-measure",
			Series: []report.Series{{Name: "F1"}, {Name: "budget pairs"}},
		}
		for _, row := range part.rows {
			f.Series[0].X = append(f.Series[0].X, row.BudgetFrac)
			f.Series[0].Y = append(f.Series[0].Y, row.F1)
			f.Series[1].X = append(f.Series[1].X, row.BudgetFrac)
			f.Series[1].Y = append(f.Series[1].Y, float64(row.Budget))
		}
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// ExtOneToOneResult compares the plain sequential labeler with the
// one-to-one-augmented labeler on the bipartite Product workload.
type ExtOneToOneResult struct {
	Threshold            float64
	PlainCrowdsourced    int
	OneToOneCrowdsourced int
	ConstraintDeduced    int
	PlainF1              float64
	OneToOneF1           float64
}

// ExtOneToOne measures the extra savings (and the quality risk on
// clusters larger than one-per-source) of the one-to-one constraint —
// another Section 8 future-work relation — on Product at threshold 0.3.
func (e *Env) ExtOneToOne() (*ExtOneToOneResult, error) {
	const threshold = 0.3
	wl := e.Product
	pairs := wl.Candidates(threshold)
	order := core.ExpectedOrder(pairs)
	trueMatches := wl.Dataset.TrueMatchingPairs()
	entities := wl.Dataset.Entities()

	plain, err := core.LabelSequentialRun(wl.Dataset.Len(), order, wl.Truth, core.Rules{}, core.RunOpts{})
	if err != nil {
		return nil, fmt.Errorf("extonetoone plain: %w", err)
	}
	oto, err := core.LabelSequentialRun(wl.Dataset.Len(), order, wl.Truth, core.Rules{OneToOne: true}, core.RunOpts{})
	if err != nil {
		return nil, fmt.Errorf("extonetoone constrained: %w", err)
	}
	return &ExtOneToOneResult{
		Threshold:            threshold,
		PlainCrowdsourced:    plain.NumCrowdsourced,
		OneToOneCrowdsourced: oto.NumCrowdsourced,
		ConstraintDeduced:    oto.NumConstraintDeduced,
		PlainF1:              metrics.Evaluate(pairs, plain.Labels, entities, trueMatches).F1,
		OneToOneF1:           metrics.Evaluate(pairs, oto.Labels, entities, trueMatches).F1,
	}, nil
}

// String renders the comparison.
func (r *ExtOneToOneResult) String() string {
	t := report.Table{
		Title: fmt.Sprintf("Extension: one-to-one constraint on Product (threshold %.1f, perfect crowd)",
			r.Threshold),
		Headers: []string{"Labeler", "crowdsourced", "constraint-deduced", "F-measure"},
	}
	t.AddRow("transitive only", r.PlainCrowdsourced, 0, fmt.Sprintf("%.2f%%", 100*r.PlainF1))
	t.AddRow("transitive + 1:1", r.OneToOneCrowdsourced, r.ConstraintDeduced, fmt.Sprintf("%.2f%%", 100*r.OneToOneF1))
	var b strings.Builder
	t.Render(&b)
	fmt.Fprintf(&b, "  extra crowd questions saved: %d (%.1f%%); quality change: %+.2f points\n",
		r.PlainCrowdsourced-r.OneToOneCrowdsourced,
		100*(1-float64(r.OneToOneCrowdsourced)/float64(r.PlainCrowdsourced)),
		100*(r.OneToOneF1-r.PlainF1))
	return b.String()
}
