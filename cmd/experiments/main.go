// Command experiments regenerates the paper's tables and figures on the
// synthetic workloads.
//
// Usage:
//
//	experiments [-exp all|fig10|fig11|fig12|fig13|fig14|fig15|table1|table2|extbudget|ext1to1|triagecurve] [-small] [-idf] [-seed N]
//
// Each experiment prints the same rows/series the paper reports. The
// output of -exp all, with and without -idf, is pinned byte for byte in
// testdata/all.golden and testdata/all-idf.golden, less its timing lines.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"crowdjoin/internal/candgen"
	"crowdjoin/internal/experiments"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run parses args and writes the selected experiments to w. A bad flag
// exits with status 2, as the flag package's command line does.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	exp := fs.String("exp", "all", "experiment to run: all, fig10..fig15, table1, table2")
	small := fs.Bool("small", false, "use the reduced-scale configuration (fast smoke run)")
	idf := fs.Bool("idf", false, "score candidates with IDF-weighted Jaccard (exercises the weighted prefix filter)")
	seed := fs.Int64("seed", 42, "experiment seed")
	fs.Parse(args) // ExitOnError: never returns an error

	cfg := experiments.DefaultConfig()
	if *small {
		cfg = experiments.SmallConfig()
	}
	if *idf {
		cfg.Weighting = candgen.IDFWeighted
	}
	cfg.Seed = *seed

	start := time.Now()
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workloads ready in %v: paper %d records / %d candidates, product %d records / %d candidates\n\n",
		time.Since(start).Round(time.Millisecond),
		env.Paper.Dataset.Len(), len(env.Paper.Master),
		env.Product.Dataset.Len(), len(env.Product.Master))

	runners := []struct {
		name string
		run  func() (fmt.Stringer, error)
	}{
		{"fig10", func() (fmt.Stringer, error) { return env.Fig10(), nil }},
		{"fig11", func() (fmt.Stringer, error) { return env.Fig11() }},
		{"fig12", func() (fmt.Stringer, error) { return env.Fig12() }},
		{"fig13", func() (fmt.Stringer, error) { return env.Fig13() }},
		{"fig14", func() (fmt.Stringer, error) { return env.Fig14() }},
		{"fig15", func() (fmt.Stringer, error) { return env.Fig15() }},
		{"table1", func() (fmt.Stringer, error) { return env.Table1() }},
		{"table2", func() (fmt.Stringer, error) { return env.Table2() }},
		{"extbudget", func() (fmt.Stringer, error) { return env.ExtBudget() }},
		{"ext1to1", func() (fmt.Stringer, error) { return env.ExtOneToOne() }},
		{"triagecurve", func() (fmt.Stringer, error) { return env.TriageCurve() }},
	}
	matched := false
	for _, r := range runners {
		if *exp != "all" && !strings.EqualFold(*exp, r.name) {
			continue
		}
		matched = true
		t0 := time.Now()
		res, err := r.run()
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		fmt.Fprintln(w, res.String())
		fmt.Fprintf(w, "[%s completed in %v]\n\n", r.name, time.Since(t0).Round(time.Millisecond))
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}
