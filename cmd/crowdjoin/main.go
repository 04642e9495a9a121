// Command crowdjoin runs a crowdsourced join over record files.
//
// Usage:
//
//	crowdjoin -a records.txt [-b other.txt] [-threshold 0.3] [-idf]
//	          [-crowd interactive|auto] [-truth truth.txt] [-parallel]
//	          [-concurrency k] [-budget n] [-guess 0.5]
//	          [-accept x] [-reject y]
//	          [-resume journal.log] [-trace] [-stream]
//
// Records are one per line. With -b, the join is bipartite (pairs span the
// two files); without it, the tool deduplicates -a. The crowd is either
// you (-crowd interactive: answer y/n on stdin) or an automatic oracle
// driven by -truth, a file assigning an entity key to each record (same
// line order as the inputs, -a then -b).
//
// With -stream, the -a file is only the initial corpus: after the first
// round of labeling, stdin carries newline-delimited batches of new
// records (a blank line or EOF ends a batch). Each batch is appended to
// the running session — candidate pairs against the whole corpus are
// generated incrementally, answers already bought are never re-asked — and
// after each round the clusters containing a new record are printed,
// separated from the next round by a "=== batch k" marker. Because stdin
// carries records, -stream requires -crowd auto; streamed lines are
// "entitykey<TAB>record text" so the oracle can answer about them.
// -stream is unipartite (-b is rejected) and pairs well with -resume: an
// interrupted stream resumes with every answer and every arrival replayed.
//
// With -accept x and/or -reject y, similarity-banded triage answers the
// obvious pairs for free: candidates at likelihood ≥ x are machine-labeled
// matching, those at likelihood ≤ y machine-labeled non-matching, and only
// the uncertain band in between consults the crowd. Triaged answers are
// traced as pair-triaged events, counted separately in the final summary,
// and never written to the -resume journal (they are recomputed from the
// bands on every run). Triage is incompatible with -budget.
//
// With -budget n, at most n pairs are crowdsourced and the rest fall back
// to the machine guess (likelihood ≥ -guess → matching). With
// -concurrency k > 1, the candidate graph is sharded by connected
// component and k components consult the crowd concurrently (labels are
// identical to the unsharded run; questions from different components
// interleave). With -resume, a label journal is kept at the given path:
// every crowd answer is appended as it arrives, and a rerun replays the
// journal instead of re-asking the crowd — so an interrupted join
// continues where it stopped. Ctrl-C cancels the join cleanly: the
// partial clusters found so far are still printed (and, with -resume,
// nothing already answered is lost). With -trace, progress events stream
// to stderr; in a concurrent run each event is prefixed with the
// connected component it belongs to, so interleaved traces stay
// attributable.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"

	"crowdjoin"
)

func main() {
	fileA := flag.String("a", "", "records file (one per line); required")
	fileB := flag.String("b", "", "optional second source for a bipartite join")
	threshold := flag.Float64("threshold", 0.3, "machine likelihood threshold in (0,1]")
	idf := flag.Bool("idf", false, "weight token overlap by inverse document frequency")
	crowdMode := flag.String("crowd", "interactive", "crowd backend: interactive or auto")
	truthFile := flag.String("truth", "", "entity key per record (required for -crowd auto)")
	parallel := flag.Bool("parallel", false, "use the parallel labeler (batches of questions)")
	concurrency := flag.Int("concurrency", 1, "run this many connected components of the candidate graph concurrently")
	budget := flag.Int("budget", -1, "crowdsource at most this many pairs, then guess (-1: unlimited)")
	guess := flag.Float64("guess", 0.5, "guess matching at likelihood >= this once the budget is spent")
	accept := flag.Float64("accept", 0, "machine-accept pairs at likelihood >= this without asking the crowd (0: off)")
	reject := flag.Float64("reject", 0, "machine-reject pairs at likelihood <= this without asking the crowd (0: off)")
	resume := flag.String("resume", "", "label-journal path: append answers and replay them on rerun")
	trace := flag.Bool("trace", false, "stream per-pair progress events to stderr")
	stream := flag.Bool("stream", false, "after the first round, read record batches from stdin and append them to the session")
	flag.Parse()

	if *fileA == "" {
		fatal(fmt.Errorf("-a is required"))
	}
	if *stream {
		if *fileB != "" {
			fatal(fmt.Errorf("-stream joins are unipartite; -b is not supported"))
		}
		if *crowdMode != "auto" {
			fatal(fmt.Errorf("-stream requires -crowd auto: stdin carries the record stream, not crowd answers"))
		}
	}
	a, err := readLines(*fileA)
	if err != nil {
		fatal(err)
	}
	var b []string
	if *fileB != "" {
		if b, err = readLines(*fileB); err != nil {
			fatal(err)
		}
	}
	texts := append(append([]string{}, a...), b...)

	oracle, keys, err := buildOracle(*crowdMode, *truthFile, texts)
	if err != nil {
		fatal(err)
	}
	if *concurrency > 1 {
		// Shard goroutines ask the oracle concurrently; the interactive
		// oracle reads stdin and must not interleave two questions.
		oracle = synchronizedOracle(oracle)
	}

	// The session generates the candidates itself, after NewJoin has
	// validated the whole configuration; streaming sessions then extend
	// them incrementally with Join.Append.
	opts := []crowdjoin.JoinOption{crowdjoin.WithMatcher(crowdjoin.Matcher{Threshold: *threshold, UseIDF: *idf})}
	if b == nil {
		opts = append(opts, crowdjoin.WithTexts(a))
	} else {
		opts = append(opts, crowdjoin.WithTextsAcross(a, b))
	}
	if *stream {
		fmt.Fprintf(os.Stderr, "%d initial records; appending batches from stdin\n", len(a))
	}
	opts = append(opts,
		crowdjoin.WithOracle(oracle),
		crowdjoin.WithConcurrency(*concurrency),
	)
	if *accept != 0 || *reject != 0 {
		if *budget >= 0 {
			fatal(fmt.Errorf("-accept/-reject are incompatible with -budget"))
		}
		opts = append(opts, crowdjoin.WithTriage(*accept, *reject))
	}
	switch {
	case *parallel && *budget >= 0:
		fatal(fmt.Errorf("-parallel and -budget are mutually exclusive"))
	case *parallel:
		opts = append(opts, crowdjoin.WithStrategy(crowdjoin.ParallelStrategy))
	case *budget >= 0:
		opts = append(opts, crowdjoin.WithStrategy(crowdjoin.BudgetStrategy(*budget, *guess)))
	}
	if *resume != "" {
		// OpenJournalFile fsyncs the parent directory on create, so the
		// journal survives a crash that follows immediately.
		f, err := crowdjoin.OpenJournalFile(*resume)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		opts = append(opts, crowdjoin.WithJournal(f))
	}
	if *trace {
		// In a concurrent run, events from different components interleave;
		// the component id keeps every line attributable to its shard.
		prefix := func(e crowdjoin.Event) string {
			if *concurrency > 1 {
				return fmt.Sprintf("trace[c%d]", e.Component)
			}
			return "trace"
		}
		opts = append(opts, crowdjoin.WithProgress(func(e crowdjoin.Event) {
			switch e.Kind {
			case crowdjoin.EventRoundPublished:
				fmt.Fprintf(os.Stderr, "%s: round %d published (%d pairs)\n", prefix(e), e.Round, e.Size)
			case crowdjoin.EventRecordAppended:
				fmt.Fprintf(os.Stderr, "%s: append %d integrated %d records\n", prefix(e), e.Round, e.Size)
			case crowdjoin.EventComponentsMerged:
				fmt.Fprintf(os.Stderr, "%s: component %d absorbed component %d\n", prefix(e), e.Component, e.Absorbed)
			default:
				fmt.Fprintf(os.Stderr, "%s: %v %v -> %v\n", prefix(e), e.Kind, e.Pair, e.Label)
			}
		}))
	}

	j, err := crowdjoin.NewJoin(opts...)
	if err != nil {
		fatal(err)
	}

	// Ctrl-C cancels the context; the session comes back with a valid
	// partial result (every deduction the collected answers imply is
	// applied), so the clusters found so far are still printed. Once the
	// context is cancelled the signal handler is released, so a second
	// Ctrl-C force-quits even while the interactive oracle is blocked on
	// stdin waiting for one last answer.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	context.AfterFunc(ctx, stop)

	if *stream {
		from := *resume
		if from == "" {
			from = "earlier rounds"
		}
		streamLoop(ctx, j, &texts, keys, from)
		return
	}

	res := outcome(j.Run(ctx))
	fmt.Fprintf(os.Stderr, "%d records, %d candidate pairs above %.2f\n", len(texts), len(res.Order), *threshold)
	if res.Components > 0 {
		fmt.Fprintf(os.Stderr, "candidate graph split into %d components (up to %d crowdsourced concurrently)\n", res.Components, *concurrency)
	}
	summarize(res, *resume)

	clusters, cerr := res.Clusters()
	if cerr != nil {
		fatal(cerr)
	}
	for _, c := range clusters {
		if len(c) < 2 {
			continue
		}
		for _, o := range c {
			fmt.Println(texts[o])
		}
		fmt.Println("---")
	}
}

// streamLoop drives a -stream session: label the initial corpus, then
// append record batches from stdin (blank line or EOF ends a batch, lines
// are "entitykey<TAB>record text") and re-run after each, printing the
// clusters that contain a new record. Answers already bought are replayed
// from replayedFrom — the session's memory or the -resume journal — never
// re-asked.
func streamLoop(ctx context.Context, j *crowdjoin.Join, texts *[]string, keys *[]string, replayedFrom string) {
	round := func(batch, newFrom int) bool {
		res := outcome(j.Run(ctx))
		summarize(res, replayedFrom)
		clusters, cerr := res.Clusters()
		if cerr != nil {
			fatal(cerr)
		}
		if batch > 0 {
			fmt.Printf("=== batch %d\n", batch)
		}
		for _, c := range clusters {
			// Members are ascending, so the last one says whether the
			// cluster touches this batch's records.
			if len(c) < 2 || int(c[len(c)-1]) < newFrom {
				continue
			}
			for _, o := range c {
				fmt.Println((*texts)[o])
			}
			fmt.Println("---")
		}
		return !res.Partial
	}
	if !round(0, 0) {
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for batch := 1; ; batch++ {
		var records, recordKeys []string
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				if len(records) > 0 {
					break
				}
				continue
			}
			key, text, ok := strings.Cut(line, "\t")
			if !ok {
				fatal(fmt.Errorf("-stream line %q: want \"entitykey<TAB>record text\"", line))
			}
			records = append(records, strings.TrimSpace(text))
			recordKeys = append(recordKeys, strings.TrimSpace(key))
		}
		if err := sc.Err(); err != nil {
			fatal(err)
		}
		if len(records) == 0 {
			return
		}
		newFrom := len(*texts)
		*keys = append(*keys, recordKeys...)
		*texts = append(*texts, records...)
		ar, err := j.Append(records...)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "appended %d records: %d new candidate pairs, %d component merges, %d objects total\n",
			ar.NumRecords, len(ar.NewPairs), len(ar.Merges), ar.NumObjects)
		if !round(batch, newFrom) {
			return
		}
	}
}

// outcome returns a Run's result, announcing a partial (interrupted) one;
// any other error is fatal.
func outcome(res *crowdjoin.JoinResult, err error) *crowdjoin.JoinResult {
	if res == nil {
		fatal(err)
	}
	if res.Partial {
		fmt.Fprintf(os.Stderr, "interrupted (%v): printing the partial join\n", err)
	} else if err != nil {
		fatal(err)
	}
	return res
}

// summarize prints how res's labels were obtained; replayed answers came
// from replayedFrom.
func summarize(res *crowdjoin.JoinResult, replayedFrom string) {
	fmt.Fprintf(os.Stderr, "crowdsourced %d pairs, deduced %d via transitive relations", res.NumCrowdsourced, res.NumDeduced)
	if res.Replayed > 0 {
		fmt.Fprintf(os.Stderr, " (%d answers replayed from %s)", res.Replayed, replayedFrom)
	}
	if n := res.TriageAccepted + res.TriageRejected; n > 0 {
		fmt.Fprintf(os.Stderr, ", triaged %d from the similarity bands (%d accepted, %d rejected)",
			n, res.TriageAccepted, res.TriageRejected)
	}
	if res.NumGuessed > 0 {
		fmt.Fprintf(os.Stderr, ", guessed %d from the machine likelihood", res.NumGuessed)
	}
	fmt.Fprintln(os.Stderr)
}

// buildOracle returns the crowd backend and, for -crowd auto, a pointer to
// its growable entity-key slice so -stream can extend the truth alongside
// appended records.
func buildOracle(mode, truthFile string, texts []string) (crowdjoin.Oracle, *[]string, error) {
	switch mode {
	case "interactive":
		in := bufio.NewScanner(os.Stdin)
		return crowdjoin.OracleFunc(func(p crowdjoin.Pair) crowdjoin.Label {
			for {
				fmt.Fprintf(os.Stderr, "same entity? [y/n]\n  A: %s\n  B: %s\n> ", texts[p.A], texts[p.B])
				if !in.Scan() {
					fmt.Fprintln(os.Stderr, "\nno more input; answering n")
					return crowdjoin.NonMatching
				}
				switch strings.ToLower(strings.TrimSpace(in.Text())) {
				case "y", "yes":
					return crowdjoin.Matching
				case "n", "no":
					return crowdjoin.NonMatching
				}
			}
		}), nil, nil
	case "auto":
		if truthFile == "" {
			return nil, nil, fmt.Errorf("-crowd auto requires -truth")
		}
		keys, err := readLines(truthFile)
		if err != nil {
			return nil, nil, err
		}
		if len(keys) != len(texts) {
			return nil, nil, fmt.Errorf("truth has %d lines for %d records", len(keys), len(texts))
		}
		kp := &keys
		return crowdjoin.OracleFunc(func(p crowdjoin.Pair) crowdjoin.Label {
			k := *kp
			if k[p.A] == k[p.B] {
				return crowdjoin.Matching
			}
			return crowdjoin.NonMatching
		}), kp, nil
	default:
		return nil, nil, fmt.Errorf("unknown crowd mode %q", mode)
	}
}

// synchronizedOracle serializes concurrent shard questions through one
// mutex, so crowd backends that are not safe for concurrent use (the
// interactive stdin oracle) still work under -concurrency.
func synchronizedOracle(o crowdjoin.Oracle) crowdjoin.Oracle {
	var mu sync.Mutex
	return crowdjoin.OracleFunc(func(p crowdjoin.Pair) crowdjoin.Label {
		mu.Lock()
		defer mu.Unlock()
		return o.Label(p)
	})
}

func readLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			lines = append(lines, line)
		}
	}
	return lines, sc.Err()
}

// fatal prints err with one "crowdjoin: " prefix (library errors carry it
// already) and exits 1.
func fatal(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "crowdjoin: ") {
		msg = "crowdjoin: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
