// Command benchjson converts `go test -bench` output on stdin into a JSON
// document on stdout, one record per benchmark with every reported metric
// (ns/op, B/op, allocs/op, and custom b.ReportMetric units).
//
// It exists for scripts/bench.sh, which snapshots the labeling and
// world-enumeration benchmarks into BENCH_core.json so the perf trajectory
// of the deduction core is tracked across PRs.
//
// With -compare <baseline.json> it instead diffs the fresh run against the
// committed snapshot: a benchstat-style delta table per shared benchmark
// (best-of-count ns/op on each side, so -count reruns tighten the
// comparison rather than skewing it), exiting 1 when any
// gated benchmark (the BenchmarkCandidates* family, BenchmarkStreamingAppend,
// BenchmarkStreamingStep, the BenchmarkGiantComponent router variants,
// BenchmarkPlatformInstant, BenchmarkJoinEndToEnd, or
// BenchmarkServerEventStream) regresses more than 10% in ns/op. CI runs the compare warn-only; the exit code is for
// local `scripts/bench.sh --compare` loops.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one benchmark result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the BENCH_core.json document.
type Report struct {
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// regressLimit is the ns/op growth (fraction of the baseline) past which a
// gated benchmark counts as a regression.
const regressLimit = 0.10

// gated reports whether a benchmark's ns/op regression fails the compare:
// the candidate-generation family, the streaming-append path, a whole
// streaming session, the giant-component router variants, the
// instant-decision platform driver,
// the join from texts to clusters, and a server job's SSE stream — the
// kernels whose wall-clock the repo tracks as acceptance criteria.
func gated(name string) bool {
	return strings.HasPrefix(name, "BenchmarkCandidates") ||
		strings.HasPrefix(name, "BenchmarkStreamingAppend") ||
		strings.HasPrefix(name, "BenchmarkStreamingStep") ||
		strings.HasPrefix(name, "BenchmarkGiantComponent") ||
		strings.HasPrefix(name, "BenchmarkPlatformInstant") ||
		strings.HasPrefix(name, "BenchmarkJoinEndToEnd") ||
		strings.HasPrefix(name, "BenchmarkServerEventStream")
}

func parse(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{
			// Strip the -GOMAXPROCS suffix for stable names across hosts.
			// Only a trailing run of digits counts: sub-benchmark names may
			// themselves contain hyphens (GiantComponent/k=4-balanced-8).
			Name:       trimProcs(fields[0]),
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		// The remainder alternates value/unit.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			b.Metrics[fields[i+1]] = v
		}
		out = append(out, b)
	}
	return out, sc.Err()
}

// trimProcs removes a trailing -N GOMAXPROCS suffix from a benchmark name.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// bestNs collapses repeated -count entries to the per-name minimum ns/op —
// the least-noise sample, the same reduction a human applies to a noisy
// rerun — preserving first-seen order in the returned name list.
func bestNs(benches []Benchmark) (map[string]float64, []string) {
	best := map[string]float64{}
	var order []string
	for _, b := range benches {
		ns, ok := b.Metrics["ns/op"]
		if !ok {
			continue
		}
		if old, seen := best[b.Name]; !seen {
			best[b.Name] = ns
			order = append(order, b.Name)
		} else if ns < old {
			best[b.Name] = ns
		}
	}
	return best, order
}

func compare(baselinePath string, fresh []Benchmark) int {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", baselinePath, err)
		return 1
	}
	oldNs, order := bestNs(base.Benchmarks)
	newNs, _ := bestNs(fresh)
	fmt.Printf("%-45s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	var regressed []string
	for _, name := range order {
		n, ok := newNs[name]
		if !ok {
			fmt.Printf("%-45s %14.0f %14s %8s\n", name, oldNs[name], "-", "-")
			continue
		}
		o := oldNs[name]
		delta := (n - o) / o
		mark := ""
		if gated(name) && delta > regressLimit {
			mark = "  REGRESSION"
			regressed = append(regressed, name)
		}
		fmt.Printf("%-45s %14.0f %14.0f %+7.1f%%%s\n", name, o, n, 100*delta, mark)
	}
	if len(regressed) > 0 {
		fmt.Printf("\n%d gated benchmark(s) regressed >%.0f%% ns/op vs %s: %s\n",
			len(regressed), 100*regressLimit, baselinePath, strings.Join(regressed, ", "))
		return 1
	}
	return 0
}

func main() {
	baseline := flag.String("compare", "", "baseline BENCH_core.json: print a delta table instead of JSON; exit 1 on gated-benchmark regressions >10% ns/op")
	flag.Parse()
	benches, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *baseline != "" {
		os.Exit(compare(*baseline, benches))
	}
	report := Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: benches,
	}
	if report.Benchmarks == nil {
		report.Benchmarks = []Benchmark{}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
