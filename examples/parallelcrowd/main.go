// Parallelcrowd: run the labeler against the discrete-event AMT simulator
// and compare publication strategies — non-parallel, parallel with instant
// decision, and the effect on wall-clock completion time and HIT count.
// This is the paper's Table 1 experiment as a library workflow.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"crowdjoin"
	"crowdjoin/internal/dataset"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run compares the publication strategies on the simulators and writes the
// report to w.
func run(w io.Writer) error {
	cfg := dataset.DefaultCoraConfig()
	cfg.Records = 300
	cfg.LargestCluster = 50
	d := dataset.GenerateCora(cfg)
	texts := make([]string, d.Len())
	for i := range d.Records {
		texts[i] = d.Records[i].Text()
	}

	matcher := crowdjoin.Matcher{Threshold: 0.35}
	pairs, err := matcher.Candidates(texts)
	if err != nil {
		return err
	}
	truth := &crowdjoin.TruthOracle{Entity: d.Entities()}

	amt := crowdjoin.DefaultAMTConfig()
	amt.BatchSize = 10

	// runOn drives one join session against pf (the default ordering is
	// the likelihood-descending expected order).
	runOn := func(pf crowdjoin.Platform, instant bool) (*crowdjoin.JoinResult, error) {
		j, err := crowdjoin.NewJoin(
			crowdjoin.WithPairs(d.Len(), pairs),
			crowdjoin.WithStrategy(crowdjoin.PlatformStrategy),
			crowdjoin.WithPlatform(pf),
			crowdjoin.WithInstantDecisions(instant),
		)
		if err != nil {
			return nil, err
		}
		return j.Run(context.Background())
	}

	// Parallel(ID): publish every pair that has become mandatory the moment
	// an answer arrives; HITs fill as pairs accumulate.
	platform, err := crowdjoin.NewAMTSimulator(truth.Matches, amt)
	if err != nil {
		return err
	}
	res, err := runOn(platform, true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "candidates: %d; crowdsourced %d, deduced %d\n",
		len(pairs), res.NumCrowdsourced, res.NumDeduced)
	fmt.Fprintf(w, "Parallel(ID): %d HITs, %d assignments, %d cents, %.1f simulated hours\n",
		platform.HITs(), platform.AssignmentsDone(), platform.CostCents(), platform.Now())

	// Non-parallel baseline: identical HITs, published one at a time.
	seqHours, err := crowdjoin.ReplayHITsSequentially(platform.HITLog(), truth.Matches, amt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Non-Parallel:  same %d HITs published one at a time take %.1f hours (%.1fx slower)\n",
		platform.HITs(), seqHours, seqHours/platform.Now())

	// Availability dynamics: why instant decision matters. With plain
	// parallel publication the platform periodically starves; with instant
	// decision work keeps flowing.
	for _, instant := range []bool{false, true} {
		pf := crowdjoin.NewSimulatedCrowd(truth, crowdjoin.SelectAscendingLikelihood, nil)
		res, err := runOn(pf, instant)
		if err != nil {
			return err
		}
		starved := 0
		for _, a := range res.Availability[:len(res.Availability)-1] {
			if a == 0 {
				starved++
			}
		}
		name := "plain parallel"
		if instant {
			name = "instant decision"
		}
		fmt.Fprintf(w, "%-17s %3d publish events, platform starved %d times mid-run\n",
			name, len(res.PublishSizes), starved)
	}
	return nil
}
