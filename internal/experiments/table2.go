package experiments

import (
	"fmt"
	"strings"

	"crowdjoin/internal/core"
	"crowdjoin/internal/crowd"
	"crowdjoin/internal/metrics"
	"crowdjoin/internal/report"
)

// Table2Row is one (dataset, method) row of Table 2: cost, time, and result
// quality with a noisy crowd.
type Table2Row struct {
	Dataset string
	Method  string // "Transitive" or "Non-Transitive"
	HITs    int
	Hours   float64
	Quality metrics.Quality
}

// Table2Result holds the four rows.
type Table2Result struct {
	Threshold float64
	Rows      []Table2Row
}

// Table2 reproduces the Table 2 experiment (Section 6.4): label the
// threshold-0.3 candidates on the simulated AMT platform with a noisy
// crowd (qualification tests, 3 assignments, majority vote).
// Non-Transitive publishes every candidate at once; Transitive runs
// Parallel(ID) in the expected order and deduces the rest, so crowd errors
// can propagate into deduced labels — the paper's observed quality loss.
func (e *Env) Table2() (*Table2Result, error) {
	const threshold = 0.3
	res := &Table2Result{Threshold: threshold}
	for _, wl := range e.Workloads() {
		pairs := wl.W.Candidates(threshold)
		order := core.ExpectedOrder(pairs)
		trueMatches := wl.W.Dataset.TrueMatchingPairs()
		entities := wl.W.Dataset.Entities()

		cfg := e.Cfg.Crowd
		cfg.Model = e.Cfg.NoisyModel
		cfg.Seed = e.Cfg.Seed

		// Non-Transitive: publish everything, take majority labels as is.
		pf, err := crowd.NewPlatform(wl.W.Truth.Matches, cfg)
		if err != nil {
			return nil, fmt.Errorf("table2 %s: %w", wl.Name, err)
		}
		pf.Publish(order)
		labels := make([]core.Label, len(pairs))
		for {
			p, l, ok := pf.NextLabel()
			if !ok {
				break
			}
			labels[p.ID] = l
		}
		res.Rows = append(res.Rows, Table2Row{
			Dataset: wl.Name,
			Method:  "Non-Transitive",
			HITs:    pf.HITs(),
			Hours:   pf.Now(),
			Quality: metrics.Evaluate(pairs, labels, entities, trueMatches),
		})

		// Transitive: Parallel(ID) + deduction over the same platform model.
		pf2, err := crowd.NewPlatform(wl.W.Truth.Matches, cfg)
		if err != nil {
			return nil, fmt.Errorf("table2 %s: %w", wl.Name, err)
		}
		pt, err := core.SinglePartition(wl.W.Dataset.Len(), order)
		if err != nil {
			return nil, fmt.Errorf("table2 %s: %w", wl.Name, err)
		}
		run, err := core.LabelPartitionedOnPlatformRun(pt, pf2, true, core.RunOpts{})
		if err != nil {
			return nil, fmt.Errorf("table2 %s transitive run: %w", wl.Name, err)
		}
		res.Rows = append(res.Rows, Table2Row{
			Dataset: wl.Name,
			Method:  "Transitive",
			HITs:    pf2.HITs(),
			Hours:   pf2.Now(),
			Quality: metrics.Evaluate(pairs, run.Labels, entities, trueMatches),
		})
	}
	return res, nil
}

// String renders the table.
func (r *Table2Result) String() string {
	t := report.Table{
		Title: fmt.Sprintf("Table 2: Transitive vs Non-Transitive with a noisy crowd (threshold %.1f)",
			r.Threshold),
		Headers: []string{"Dataset", "Method", "# of HITs", "Time", "Precision", "Recall", "F-measure"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, row.Method, row.HITs,
			fmt.Sprintf("%.0f hours", row.Hours),
			fmt.Sprintf("%.2f%%", 100*row.Quality.Precision),
			fmt.Sprintf("%.2f%%", 100*row.Quality.Recall),
			fmt.Sprintf("%.2f%%", 100*row.Quality.F1))
	}
	var b strings.Builder
	t.Render(&b)
	return b.String()
}
