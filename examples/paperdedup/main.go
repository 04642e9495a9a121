// Paperdedup: deduplicate a synthetic citation corpus with large duplicate
// clusters (the paper's Paper / Cora scenario), comparing labeling orders.
// Large clusters are where transitive relations shine: a k-record cluster
// needs only k-1 crowdsourced pairs instead of k(k-1)/2.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"crowdjoin"
	"crowdjoin/internal/dataset"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run deduplicates the corpus under four labeling orders and writes the
// comparison to w.
func run(w io.Writer) error {
	cfg := dataset.DefaultCoraConfig()
	cfg.Records = 400
	cfg.LargestCluster = 60
	d := dataset.GenerateCora(cfg)

	texts := make([]string, d.Len())
	for i := range d.Records {
		texts[i] = d.Records[i].Text()
	}
	fmt.Fprintf(w, "deduplicating %d citation records (largest duplicate cluster: %d)\n",
		d.Len(), cfg.LargestCluster)

	matcher := crowdjoin.Matcher{Threshold: 0.35}
	pairs, err := matcher.Candidates(texts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "machine pass kept %d candidates of %d pairs\n", len(pairs), d.NumPairs())

	truth := &crowdjoin.TruthOracle{Entity: d.Entities()}
	// The labeling order is a pluggable session strategy: the same Join
	// configuration, re-run with four different WithOrder values.
	join := func(ord crowdjoin.Ordering) (*crowdjoin.JoinResult, error) {
		j, err := crowdjoin.NewJoin(
			crowdjoin.WithPairs(d.Len(), pairs),
			crowdjoin.WithOrder(ord),
			crowdjoin.WithOracle(truth),
		)
		if err != nil {
			return nil, err
		}
		return j.Run(context.Background())
	}
	orders := []struct {
		name string
		ord  crowdjoin.Ordering
	}{
		{"optimal (oracle)", func(ps []crowdjoin.Pair) []crowdjoin.Pair {
			return crowdjoin.OptimalOrder(ps, truth.Matches)
		}},
		{"expected (heuristic)", crowdjoin.OrderExpected},
		{"random", crowdjoin.OrderRandom(rand.New(rand.NewSource(1)))},
		{"worst (oracle)", func(ps []crowdjoin.Pair) []crowdjoin.Pair {
			return crowdjoin.WorstOrder(ps, truth.Matches)
		}},
	}

	fmt.Fprintln(w, "labeling order comparison (perfect crowd):")
	asked := make([]int, len(orders))
	for i, o := range orders {
		res, err := join(o.ord)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-22s %5d crowdsourced, %5d deduced\n", o.name, res.NumCrowdsourced, res.NumDeduced)
		asked[i] = res.NumCrowdsourced
	}
	opt, exp, worst := asked[0], asked[1], asked[3]

	fmt.Fprintf(w, "\nthe heuristic needs %.1f%% more questions than the optimal order;\n",
		100*(float64(exp)/float64(opt)-1))
	fmt.Fprintf(w, "the worst order needs %.1fx the optimal — ordering matters.\n",
		float64(worst)/float64(opt))

	// Final entities from the expected-order run.
	res, err := join(crowdjoin.OrderExpected)
	if err != nil {
		return err
	}
	clusters, err := res.Clusters()
	if err != nil {
		return err
	}
	big := 0
	for _, c := range clusters {
		if len(c) >= 10 {
			big++
		}
	}
	fmt.Fprintf(w, "resolved into %d entities (%d clusters with ≥10 duplicate records)\n", len(clusters), big)
	return nil
}
