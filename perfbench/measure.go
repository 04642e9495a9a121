package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// phase is what one closed-loop measurement observed.
type phase struct {
	// lat holds the latency of every successful op, in completion order,
	// and at its completion time, measured from the start of the phase.
	lat       []time.Duration
	at        []time.Duration
	attempted int
	failed    int
	cpu       time.Duration // process user+sys time
	mem       runtime.MemStats
	memBefore runtime.MemStats
}

// measure runs the closed loop: each of clients goroutines starts its next
// op as soon as the previous one returns, until dur has elapsed; ops in
// flight at the deadline complete and count.
func measure(inst instance, clients int, dur time.Duration, tr *tracer) *phase {
	ph := &phase{}
	runtime.GC()
	runtime.ReadMemStats(&ph.memBefore)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(dur)
	var (
		mu        sync.Mutex
		wg        sync.WaitGroup
		attempted atomic.Int64
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				attempted.Add(1)
				d, err := inst.op(tr)
				mu.Lock()
				if err != nil {
					ph.failed++
					fmt.Fprintln(os.Stderr, "op failed:", err)
				} else {
					ph.lat = append(ph.lat, d)
					ph.at = append(ph.at, time.Since(start))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.cpu = cpuTime() - cpu0
	ph.attempted = int(attempted.Load())
	runtime.ReadMemStats(&ph.mem)
	return ph
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// tailLadder is the set of percentiles op_ms_tail may report: whole
// nines, so a run's percentile changes only when its op count changes by
// a factor of ten.
var tailLadder = []float64{90, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond the reported tail
// percentile.
const minBeyond = 10

// tailPercentile picks the highest percentile of tailLadder that leaves at
// least minBeyond of n samples beyond it, and how many it leaves. Below
// 100 samples it falls back to the exact percentile leaving minBeyond;
// with minBeyond samples or fewer, ok is false.
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	if n <= minBeyond {
		return 0, 0, false
	}
	p = 100 * float64(n-minBeyond) / float64(n)
	for _, q := range tailLadder {
		if n-rank(q, n) < minBeyond {
			break
		}
		p = q
	}
	return p, n - rank(p, n), true
}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank percentile p of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	return sorted[rank(p, len(sorted))-1]
}

// median returns the median of xs (mean of the middle two for even n).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDur is median over durations.
func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// minWindows is how many throughput windows a run must complete.
const minWindows = 3

// windowRate splits the completions into consecutive windows of window
// ops and returns the median of their throughputs (ops per second) and how
// many windows there were. A median over windows, rather than the count
// over the whole run, keeps a stall of the shared host in a few windows
// from moving the figure.
func windowRate(at []time.Duration, window int) (float64, int) {
	var rates []float64
	var prev time.Duration
	for end := window; end <= len(at); end += window {
		last := at[end-1]
		rates = append(rates, float64(window)/(last-prev).Seconds())
		prev = last
	}
	return median(rates), len(rates)
}

// endToEnd fills the end-to-end metrics of an untraced run, whose
// throughput windows are window ops long, and prints the sample counts
// behind the timed ones.
func endToEnd(m map[string]metric, ph *phase, c countMetrics, setupS float64, window int) error {
	n := len(ph.lat)
	if n == 0 {
		return fmt.Errorf("no op completed")
	}
	sorted := append([]time.Duration(nil), ph.lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p, beyond, ok := tailPercentile(n)
	if !ok {
		return fmt.Errorf("only %d ops completed; op_ms_tail needs more than %d", n, minBeyond)
	}
	rate, windows := windowRate(ph.at, window)
	if windows < minWindows {
		return fmt.Errorf("only %d ops completed; ops_per_s needs %d windows of %d", n, minWindows, window)
	}
	fmt.Printf("op_ms_p50 over %d ops; op_ms_tail is p%g over %d ops (%d beyond it); ops_per_s is the median of %d windows of %d ops\n",
		n, p, n, beyond, windows, window)
	m["setup_s"] = metric{setupS, "s"}
	m["op_ms_p50"] = metric{ms(medianDur(sorted)), "ms"}
	m["op_ms_tail"] = metric{ms(percentile(sorted, p)), "ms"}
	m["ops_per_s"] = metric{rate, "1/s"}
	m["cpu_ms_per_op"] = metric{ms(ph.cpu) / float64(ph.attempted), "ms"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	m["crowd_questions"] = metric{c.questions, "count/op"}
	m["crowd_rounds"] = metric{c.rounds, "count/op"}
	m["f1"] = metric{c.f1, "ratio"}
	return nil
}
