// Command perfbench is crowdjoin's end-to-end benchmark. It runs one named
// workload as a closed loop for a fixed time, checks every op's output
// against reference results computed during set-up, and prints one JSON
// result object as the last line of standard output.
//
// Usage (from the repository root, normally through perfbench/run.sh):
//
//	perfbench --workload paper-batch --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// an untraced and a traced phase of half the time each and reports the
// per-layer metrics (see README.md for every metric and workload).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"
)

// setupRepeats is how many times set-up runs; setup_s is their median.
const setupRepeats = 3

// workload is one named benchmark input. setup builds a fresh instance
// from the seed (inputs, references, warm-up); the last instance built is
// the one measured. window is the length, in ops, of the throughput
// windows ops_per_s is the median over: a run of ops whose mix of costs is
// the same wherever it starts in the seeded sequence.
type workload struct {
	name    string
	clients int
	window  int
	setup   func(seed int64, dir string) (instance, error)
}

// instance is a set-up workload ready to run ops.
type instance interface {
	// op runs the next op of the seeded sequence and checks its output; a
	// nil tr means untraced. It returns the time the op took without its
	// output check. It is safe for concurrent use when the
	// workload has more than one client.
	op(tr *tracer) (time.Duration, error)
	// counts returns the count metrics, computed from the references over
	// whole seeded cycles or sessions.
	counts() countMetrics
	close() error
}

// countMetrics are the crowd-cost and quality metrics, per op.
type countMetrics struct {
	questions float64
	rounds    float64
	f1        float64
}

// meanCounts averages per-item count metrics over a whole cycle.
func meanCounts[T any](items []T, of func(*T) countMetrics) countMetrics {
	var c countMetrics
	for i := range items {
		x := of(&items[i])
		c.questions += x.questions
		c.rounds += x.rounds
		c.f1 += x.f1
	}
	n := float64(len(items))
	return countMetrics{c.questions / n, c.rounds / n, c.f1 / n}
}

var workloads = []workload{
	{name: "paper-batch", clients: 1, window: cycleLen, setup: setupPaperBatch},
	{name: "paper-amt", clients: 1, window: amtWindow, setup: setupPaperAMT},
	{name: "paper-stream", clients: 1, window: streamSteps, setup: setupPaperStream},
	{name: "server-mixed", clients: 1, window: serverPasses / 2 * len(serverPass), setup: setupServerMixed},
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: paper-batch, paper-amt, paper-stream, server-mixed")
	seed := flag.Int64("seed", 1, "workload seed; inputs and op sequence are a function of it")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build", "directory for journals, server data and trace output")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, dur time.Duration, traced bool, workdir string) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if dur <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var (
		inst   instance
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return err
			}
			inst = nil
		}
		// Each set-up starts from the same clean heap, so the peak RSS is
		// not set by two instances alive at once.
		debug.FreeOSMemory()
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return err
		}
		t0 := time.Now()
		inst, err = wl.setup(seed, sub)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	res := result{Metrics: map[string]metric{}}
	if !traced {
		ph := measure(inst, wl.clients, dur, nil)
		res.Attempted, res.Failed = ph.attempted, ph.failed
		if err := endToEnd(res.Metrics, ph, inst.counts(), median(setups), wl.window); err != nil {
			return err
		}
	} else {
		plain := measure(inst, wl.clients, dur/2, nil)
		tr := newTracer()
		tph := measure(inst, wl.clients, dur-dur/2, tr)
		res.Attempted = plain.attempted + tph.attempted
		res.Failed = plain.failed + tph.failed
		perLayer(res.Metrics, plain, tph, tr)
		if err := tr.write(filepath.Join(workdir, "trace-"+name+".jsonl")); err != nil {
			return err
		}
	}
	if err := inst.close(); err != nil {
		return err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Println(string(line))
	return nil
}
