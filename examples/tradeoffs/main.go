// Tradeoffs: the two future-work extensions as a decision aid — how much
// quality a shrinking crowdsourcing budget costs, and what the one-to-one
// constraint buys (and risks) on a bipartite join.
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

// run measures both trade-offs on one bipartite join and writes them to w.
func run(w io.Writer) error {
	cfg := dataset.DefaultAbtBuyConfig()
	cfg.AbtRecords, cfg.BuyRecords = 400, 420
	d := dataset.GenerateAbtBuy(cfg)
	texts := make([]string, d.Len())
	for i := range d.Records {
		texts[i] = d.Records[i].Text()
	}
	matcher := crowdjoin.Matcher{Threshold: 0.3}
	pairs, err := matcher.Candidates(texts)
	if err != nil {
		return err
	}
	truth := &crowdjoin.TruthOracle{Entity: d.Entities()}
	trueMatches := d.TrueMatchingPairs()

	// One session per strategy over the same candidates; the default
	// ordering is the likelihood-descending expected order.
	join := func(s crowdjoin.Strategy) (*crowdjoin.JoinResult, error) {
		j, err := crowdjoin.NewJoin(
			crowdjoin.WithPairs(d.Len(), pairs),
			crowdjoin.WithStrategy(s),
			crowdjoin.WithOracle(truth),
		)
		if err != nil {
			return nil, err
		}
		return j.Run(context.Background())
	}

	f1 := func(labels []crowdjoin.Label) float64 {
		tp, fp := 0, 0
		for _, p := range pairs {
			if labels[p.ID] != crowdjoin.Matching {
				continue
			}
			if truth.Matches(p.A, p.B) {
				tp++
			} else {
				fp++
			}
		}
		if tp == 0 {
			return 0
		}
		precision := float64(tp) / float64(tp+fp)
		recall := float64(tp) / float64(trueMatches)
		return 2 * precision * recall / (precision + recall)
	}

	full, err := join(crowdjoin.SequentialStrategy)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "candidates: %d; full transitive labeling asks the crowd %d questions (F1 %.3f)\n\n",
		len(pairs), full.NumCrowdsourced, f1(full.Labels))

	fmt.Fprintln(w, "budgeted labeling (rest guessed from machine likelihood):")
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
		budget := int(frac * float64(full.NumCrowdsourced))
		res, err := join(crowdjoin.BudgetStrategy(budget, 0.5))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  budget %4d questions (%3.0f%%): F1 %.3f (%d guessed)\n",
			budget, 100*frac, f1(res.Labels), res.NumGuessed)
	}

	fmt.Fprintln(w, "\none-to-one constraint (sources assumed duplicate-free):")
	oto, err := join(crowdjoin.OneToOneStrategy)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  questions %d → %d (constraint deduced %d more pairs); F1 %.3f → %.3f\n",
		full.NumCrowdsourced, oto.NumCrowdsourced, oto.NumConstraintDeduced,
		f1(full.Labels), f1(oto.Labels))
	fmt.Fprintln(w, "  (quality dips where a catalog lists the same product twice — the constraint's documented risk)")
	return nil
}
