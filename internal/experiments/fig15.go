package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"crowdjoin/internal/core"
	"crowdjoin/internal/report"
)

// Fig15Variant names the three algorithms of Figure 15.
type Fig15Variant string

const (
	// VariantParallel is the plain parallel algorithm: a new round is
	// published only after the platform drains.
	VariantParallel Fig15Variant = "Parallel"
	// VariantInstant adds the instant-decision optimization.
	VariantInstant Fig15Variant = "Parallel(ID)"
	// VariantInstantNF adds instant decision and non-matching-first.
	VariantInstantNF Fig15Variant = "Parallel(ID+NF)"
)

// Fig15Trace is one variant's availability series: Availability[k] is the
// number of available (published, unlabeled) pairs in the platform after
// k+1 pairs were crowdsourced.
type Fig15Trace struct {
	Variant      Fig15Variant
	Availability []int
}

// Fig15Result holds the traces per dataset at threshold 0.3.
type Fig15Result struct {
	Threshold float64
	Paper     []Fig15Trace
	Product   []Fig15Trace
}

// Fig15 measures how the optimization techniques keep the platform stocked
// with available pairs (Section 6.3, Figure 15). Workers label published
// pairs in random order, except under non-matching-first, which labels the
// least-likely-matching published pair first.
func (e *Env) Fig15() (*Fig15Result, error) {
	const threshold = 0.3
	res := &Fig15Result{Threshold: threshold}
	for _, wl := range e.Workloads() {
		pairs := wl.W.Candidates(threshold)
		pt, err := core.SinglePartition(wl.W.Dataset.Len(), core.ExpectedOrder(pairs))
		if err != nil {
			return nil, fmt.Errorf("fig15 %s: %w", wl.Name, err)
		}
		for _, v := range []Fig15Variant{VariantParallel, VariantInstant, VariantInstantNF} {
			policy := core.SelectRandom
			instant := true
			switch v {
			case VariantParallel:
				instant = false
			case VariantInstantNF:
				policy = core.SelectAscendingLikelihood
			}
			pf := core.NewSimPlatform(wl.W.Truth, policy, rand.New(rand.NewSource(e.Cfg.Seed)))
			run, err := core.LabelPartitionedOnPlatformRun(pt, pf, instant, core.RunOpts{})
			if err != nil {
				return nil, fmt.Errorf("fig15 %s %s: %w", wl.Name, v, err)
			}
			trace := Fig15Trace{Variant: v, Availability: run.Availability}
			if wl.Name == "Paper" {
				res.Paper = append(res.Paper, trace)
			} else {
				res.Product = append(res.Product, trace)
			}
		}
	}
	return res, nil
}

// String renders both panels, sampling the trace every few points to keep
// the table readable.
func (r *Fig15Result) String() string {
	var b strings.Builder
	for _, part := range []struct {
		name   string
		traces []Fig15Trace
	}{{"(a) Paper", r.Paper}, {"(b) Product", r.Product}} {
		f := report.Figure{
			Title: fmt.Sprintf("Figure 15 %s: available pairs in the platform (threshold %.1f)",
				part.name, r.Threshold),
			XLabel: "# of crowdsourced pairs",
			YLabel: "# of available pairs",
		}
		maxLen := 0
		for _, tr := range part.traces {
			if len(tr.Availability) > maxLen {
				maxLen = len(tr.Availability)
			}
		}
		step := maxLen / 12
		if step < 1 {
			step = 1
		}
		for _, tr := range part.traces {
			s := report.Series{Name: string(tr.Variant)}
			for k := step - 1; k < len(tr.Availability); k += step {
				s.X = append(s.X, float64(k+1))
				s.Y = append(s.Y, float64(tr.Availability[k]))
			}
			f.Series = append(f.Series, s)
		}
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// AvailabilityMass returns the sum of a trace's availability series — the
// scalar the optimization comparisons assert on.
func (t Fig15Trace) AvailabilityMass() int {
	sum := 0
	for _, a := range t.Availability {
		sum += a
	}
	return sum
}
