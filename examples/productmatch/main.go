// Productmatch: a bipartite crowdsourced join between two synthetic retail
// catalogs (the paper's Product / Abt-Buy scenario). Shows candidate
// generation across sources, the parallel labeler, and quality measurement
// against ground truth.
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

// run joins the two catalogs and writes the cost and quality report to w.
func run(w io.Writer) error {
	// Two catalogs of the same product universe with divergent naming.
	// (The generator ships with the library as a test substrate; your own
	// application brings real catalogs.)
	cfg := dataset.DefaultAbtBuyConfig()
	cfg.AbtRecords, cfg.BuyRecords = 300, 320
	d := dataset.GenerateAbtBuy(cfg)

	var abt, buy []string
	var abtIDs, buyIDs []int32
	for _, id := range d.SourceA {
		abt = append(abt, d.Records[id].Text())
		abtIDs = append(abtIDs, id)
	}
	for _, id := range d.SourceB {
		buy = append(buy, d.Records[id].Text())
		buyIDs = append(buyIDs, id)
	}
	fmt.Fprintf(w, "joining %d x %d product listings (%d possible pairs)\n",
		len(abt), len(buy), len(abt)*len(buy))

	// The facade numbers objects 0..len(abt)+len(buy)-1; map back to the
	// generator's ground truth to simulate the crowd.
	entityOf := func(o int32) int32 {
		if int(o) < len(abt) {
			return d.Records[abtIDs[o]].Entity
		}
		return d.Records[buyIDs[int(o)-len(abt)]].Entity
	}
	asked := 0
	batch := crowdjoin.BatchOracleFunc(func(ps []crowdjoin.Pair) []crowdjoin.Label {
		asked += len(ps)
		out := make([]crowdjoin.Label, len(ps))
		for i, p := range ps {
			if entityOf(p.A) == entityOf(p.B) {
				out[i] = crowdjoin.Matching
			} else {
				out[i] = crowdjoin.NonMatching
			}
		}
		return out
	})

	// One session: bipartite candidates, likelihood-descending order, and
	// the parallel labeler, all behind Join.Run.
	j, err := crowdjoin.NewJoin(
		crowdjoin.WithTextsAcross(abt, buy),
		crowdjoin.WithMatcher(crowdjoin.Matcher{Threshold: 0.3, UseIDF: true}),
		crowdjoin.WithStrategy(crowdjoin.ParallelStrategy),
		crowdjoin.WithBatchOracle(batch),
	)
	if err != nil {
		return err
	}
	res, err := j.Run(context.Background())
	if err != nil {
		return err
	}
	pairs := res.Order
	fmt.Fprintf(w, "machine pass kept %d candidates\n", len(pairs))
	fmt.Fprintf(w, "parallel labeler: %d pairs crowdsourced in %d iterations (round sizes %v), %d deduced\n",
		res.NumCrowdsourced, len(res.RoundSizes), res.RoundSizes, res.NumDeduced)

	// Quality against ground truth.
	var tp, fp, trueMatches int
	for _, p := range pairs {
		if res.Labels[p.ID] == crowdjoin.Matching {
			if entityOf(p.A) == entityOf(p.B) {
				tp++
			} else {
				fp++
			}
		}
	}
	for _, a := range d.SourceA {
		for _, b := range d.SourceB {
			if d.Records[a].Entity == d.Records[b].Entity {
				trueMatches++
			}
		}
	}
	fmt.Fprintf(w, "matches found: %d correct, %d wrong, recall %.1f%% of %d true matches\n",
		tp, fp, 100*float64(tp)/float64(trueMatches), trueMatches)
	fmt.Fprintf(w, "crowd questions saved by transitivity: %d of %d (%.1f%%)\n",
		len(pairs)-asked, len(pairs), 100*float64(len(pairs)-asked)/float64(len(pairs)))
	return nil
}
