// Quickstart: resolve six product listings with a simulated crowd, showing
// the full hybrid workflow through the session API — machine candidates,
// expected labeling order, transitive deduction, progress events, final
// clusters — behind a single Join.Run call.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"crowdjoin"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run resolves the listings and writes the walkthrough to w.
func run(w io.Writer) error {
	// Six listings: three describe one tablet, two describe one TV, and one
	// is a loner.
	texts := []string{
		"apple ipad 2nd gen tablet 16gb black",
		"apple ipad two tablet 16gb black",
		"apple ipad 2 tablet black 16gb",
		"sony kdl40 television lcd 40 inch",
		"sony kdl40 lcd tv 40 inch black",
		"dyson dc25 vacuum upright",
	}

	// The "crowd" here is a function; swap in your real crowdsourcing
	// backend (or a Platform via PlatformStrategy).
	crowd := crowdjoin.OracleFunc(func(p crowdjoin.Pair) crowdjoin.Label {
		truth := []int32{0, 0, 0, 1, 1, 2} // who actually matches whom
		if truth[p.A] == truth[p.B] {
			return crowdjoin.Matching
		}
		return crowdjoin.NonMatching
	})

	// One session: machine half (Matcher over the texts), labeling order
	// (likelihood descending by default), human half (the oracle), and a
	// progress stream showing which questions the crowd actually saw.
	j, err := crowdjoin.NewJoin(
		crowdjoin.WithTexts(texts),
		crowdjoin.WithMatcher(crowdjoin.Matcher{Threshold: 0.3}),
		crowdjoin.WithOracle(crowd),
		crowdjoin.WithProgress(func(e crowdjoin.Event) {
			if e.Kind == crowdjoin.EventPairCrowdsourced {
				fmt.Fprintf(w, "  crowd asked: %q vs %q\n", texts[e.Pair.A], texts[e.Pair.B])
			}
		}),
	)
	if err != nil {
		return err
	}
	res, err := j.Run(context.Background())
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "machine pass kept %d candidate pairs of %d possible\n",
		len(res.Order), len(texts)*(len(texts)-1)/2)
	fmt.Fprintf(w, "crowdsourced %d pairs, deduced %d via transitive relations\n",
		res.NumCrowdsourced, res.NumDeduced)

	clusters, err := res.Clusters()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "entities found:")
	for _, c := range clusters {
		if len(c) == 1 {
			continue
		}
		fmt.Fprintf(w, "  cluster: ")
		for i, o := range c {
			if i > 0 {
				fmt.Fprint(w, " == ")
			}
			fmt.Fprintf(w, "%q", texts[o])
		}
		fmt.Fprintln(w)
	}
	return nil
}
