package experiments

import (
	"fmt"
	"strings"

	"crowdjoin/internal/core"
	"crowdjoin/internal/crowd"
	"crowdjoin/internal/report"
)

// Table1Row is one dataset's row of Table 1: the completion-time comparison
// between Non-Parallel and Parallel(ID) publication of the same HITs, with
// an always-correct crowd.
type Table1Row struct {
	Dataset string
	// HITs is the number of HITs both strategies publish (20-pair batches,
	// chunked per publish event).
	HITs int
	// NonParallelHours is the makespan when HITs are published one at a
	// time, each waiting for the previous to complete.
	NonParallelHours float64
	// ParallelIDHours is the makespan of the instant-decision run.
	ParallelIDHours float64
	// CrowdsourcedPairs is the total number of pairs sent to the crowd.
	CrowdsourcedPairs int
}

// Table1Result holds both rows.
type Table1Result struct {
	Threshold float64
	Rows      []Table1Row
}

// Table1 reproduces the Table 1 experiment (Section 6.4): run
// Parallel(ID) with batching on the simulated AMT platform and perfect
// answers, then replay the identical HITs sequentially.
func (e *Env) Table1() (*Table1Result, error) {
	const threshold = 0.3
	res := &Table1Result{Threshold: threshold}
	for _, wl := range e.Workloads() {
		pairs := wl.W.Candidates(threshold)
		pt, err := core.SinglePartition(wl.W.Dataset.Len(), core.ExpectedOrder(pairs))
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", wl.Name, err)
		}
		cfg := e.Cfg.Crowd
		cfg.Model = crowd.PerfectModel{}
		cfg.Seed = e.Cfg.Seed
		pf, err := crowd.NewPlatform(wl.W.Truth.Matches, cfg)
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", wl.Name, err)
		}
		if _, err := core.LabelPartitionedOnPlatformRun(pt, pf, true, core.RunOpts{}); err != nil {
			return nil, fmt.Errorf("table1 %s parallel run: %w", wl.Name, err)
		}
		seqHours, err := crowd.RunHITsSequentially(pf.HITLog(), wl.W.Truth.Matches, cfg)
		if err != nil {
			return nil, fmt.Errorf("table1 %s sequential replay: %w", wl.Name, err)
		}
		crowdsourced := 0
		for _, h := range pf.HITLog() {
			crowdsourced += len(h)
		}
		res.Rows = append(res.Rows, Table1Row{
			Dataset:           wl.Name,
			HITs:              pf.HITs(),
			NonParallelHours:  seqHours,
			ParallelIDHours:   pf.Now(),
			CrowdsourcedPairs: crowdsourced,
		})
	}
	return res, nil
}

// String renders the table.
func (r *Table1Result) String() string {
	t := report.Table{
		Title: fmt.Sprintf("Table 1: Parallel(ID) vs Non-Parallel on the simulated platform (threshold %.1f)",
			r.Threshold),
		Headers: []string{"Dataset", "# of HITs", "Non-Parallel", "Parallel(ID)", "speedup"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, row.HITs,
			fmt.Sprintf("%.0f hours", row.NonParallelHours),
			fmt.Sprintf("%.0f hours", row.ParallelIDHours),
			fmt.Sprintf("%.1fx", row.NonParallelHours/row.ParallelIDHours))
	}
	var b strings.Builder
	t.Render(&b)
	return b.String()
}
