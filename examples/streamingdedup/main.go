// Streaming dedup: records arrive in batches while the session is live.
// Join.Append integrates each batch incrementally — candidate pairs
// against the whole corpus come from an incremental size-ordered index,
// the component partition is updated in place (watch the merge events when
// a late record bridges two clusters), and answers bought in earlier
// rounds are replayed from the session's memory, never re-crowdsourced.
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

// run streams the batches through one session and writes each round's
// outcome to w.
func run(w io.Writer) error {
	// The catalog starts with four listings; two more batches arrive later.
	initial := []string{
		"apple ipad 2nd gen tablet 16gb black",
		"apple ipad two tablet 16gb black",
		"sony kdl40 television lcd 40 inch",
		"dyson dc25 vacuum upright",
	}
	arrivals := [][]string{
		{
			"sony kdl40 lcd tv 40 inch black",
			"dyson dc25 upright vacuum cleaner",
		},
		{
			// This listing mentions both the tablet and the tv — it bridges
			// their components (watch the merge event), and the crowd gets
			// the final say on which cluster it actually belongs to.
			"apple ipad tablet sony kdl40 lcd tv",
		},
	}
	truth := []int32{0, 0, 1, 2, 1, 2, 0} // ground truth, in arrival order

	asked := 0
	crowd := crowdjoin.OracleFunc(func(p crowdjoin.Pair) crowdjoin.Label {
		asked++
		if truth[p.A] == truth[p.B] {
			return crowdjoin.Matching
		}
		return crowdjoin.NonMatching
	})

	j, err := crowdjoin.NewJoin(
		crowdjoin.WithTexts(initial),
		crowdjoin.WithMatcher(crowdjoin.Matcher{Threshold: 0.3}),
		crowdjoin.WithOracle(crowd),
		crowdjoin.WithProgress(func(e crowdjoin.Event) {
			switch e.Kind {
			case crowdjoin.EventRecordAppended:
				fmt.Fprintf(w, "  [event] append %d integrated %d records\n", e.Round, e.Size)
			case crowdjoin.EventComponentsMerged:
				fmt.Fprintf(w, "  [event] component %d absorbed component %d\n", e.Component, e.Absorbed)
			}
		}),
	)
	if err != nil {
		return err
	}

	texts := append([]string{}, initial...)
	runRound := func(title string) error {
		res, err := j.Run(context.Background())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: crowdsourced %d, deduced %d, replayed %d (crowd asked %d total)\n",
			title, res.NumCrowdsourced, res.NumDeduced, res.Replayed, asked)
		clusters, err := res.Clusters()
		if err != nil {
			return err
		}
		for _, c := range clusters {
			if len(c) < 2 {
				continue
			}
			fmt.Fprint(w, "  cluster:")
			for _, o := range c {
				fmt.Fprintf(w, " %q", texts[o])
			}
			fmt.Fprintln(w)
		}
		return nil
	}

	if err := runRound("initial corpus"); err != nil {
		return err
	}
	for _, batch := range arrivals {
		ar, err := j.Append(batch...)
		if err != nil {
			return err
		}
		texts = append(texts, batch...)
		fmt.Fprintf(w, "appended %d records: %d new candidate pairs, %d merges\n",
			ar.NumRecords, len(ar.NewPairs), len(ar.Merges))
		if err := runRound("after append"); err != nil {
			return err
		}
	}
	return nil
}
