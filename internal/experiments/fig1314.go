package experiments

import (
	"fmt"
	"strings"

	"crowdjoin/internal/core"
	"crowdjoin/internal/report"
)

// ParallelRunResult describes one dataset's parallel-labeling run for
// Figure 13 (threshold 0.3) or Figure 14 (threshold 0.4).
type ParallelRunResult struct {
	Threshold float64
	// RoundSizes[i] is the number of pairs crowdsourced in iteration i+1 of
	// the parallel algorithm.
	RoundSizes []int
	// NonParallelIterations is the sequential baseline: one pair per
	// iteration, so it equals the total number of crowdsourced pairs.
	NonParallelIterations int
}

// Total returns the parallel run's total crowdsourced pairs.
func (r *ParallelRunResult) Total() int {
	t := 0
	for _, s := range r.RoundSizes {
		t += s
	}
	return t
}

// Fig13Result holds both datasets' runs at one threshold.
type Fig13Result struct {
	Figure  string // "13" or "14"
	Paper   *ParallelRunResult
	Product *ParallelRunResult
}

// Fig13 runs the parallel-vs-non-parallel comparison at threshold 0.3
// (Section 6.3, Figure 13).
func (e *Env) Fig13() (*Fig13Result, error) { return e.parallelRuns("13", 0.3) }

// Fig14 repeats Figure 13 at threshold 0.4; sparser candidate graphs allow
// more pairs per iteration (Figure 14).
func (e *Env) Fig14() (*Fig13Result, error) { return e.parallelRuns("14", 0.4) }

func (e *Env) parallelRuns(figure string, threshold float64) (*Fig13Result, error) {
	res := &Fig13Result{Figure: figure}
	for _, wl := range e.Workloads() {
		pairs := wl.W.Candidates(threshold)
		order := core.ExpectedOrder(pairs)
		pt, err := core.SinglePartition(wl.W.Dataset.Len(), order)
		if err != nil {
			return nil, fmt.Errorf("fig%s %s: %w", figure, wl.Name, err)
		}
		rounds := core.NewRoundPlatform(pt, core.Batched(wl.W.Truth), 1, false, core.RunOpts{})
		par, err := core.LabelPartitionedOnPlatformRun(pt, rounds, false, core.RunOpts{})
		rounds.Close()
		if err != nil {
			return nil, fmt.Errorf("fig%s %s: %w", figure, wl.Name, err)
		}
		seq, err := core.CountCrowdsourced(wl.W.Dataset.Len(), order, wl.W.Truth)
		if err != nil {
			return nil, fmt.Errorf("fig%s %s sequential: %w", figure, wl.Name, err)
		}
		run := &ParallelRunResult{
			Threshold:             threshold,
			RoundSizes:            par.RoundSizes,
			NonParallelIterations: seq,
		}
		if wl.Name == "Paper" {
			res.Paper = run
		} else {
			res.Product = run
		}
	}
	return res, nil
}

// String renders both panels: the parallel round-size series and the
// non-parallel baseline.
func (r *Fig13Result) String() string {
	var b strings.Builder
	for _, part := range []struct {
		name string
		run  *ParallelRunResult
	}{{"(a) Paper", r.Paper}, {"(b) Product", r.Product}} {
		f := report.Figure{
			Title: fmt.Sprintf("Figure %s %s: parallel vs non-parallel (threshold %.1f)",
				r.Figure, part.name, part.run.Threshold),
			XLabel: "iteration",
			YLabel: "# of parallel pairs",
			Series: []report.Series{{Name: "Parallel"}},
		}
		for i, s := range part.run.RoundSizes {
			f.Series[0].X = append(f.Series[0].X, float64(i+1))
			f.Series[0].Y = append(f.Series[0].Y, float64(s))
		}
		b.WriteString(f.String())
		fmt.Fprintf(&b, "  Parallel: %d pairs in %d iterations; Non-Parallel: %d iterations of 1 pair\n\n",
			part.run.Total(), len(part.run.RoundSizes), part.run.NonParallelIterations)
	}
	return b.String()
}
