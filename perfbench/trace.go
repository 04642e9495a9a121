package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans are recorded by the
// benchmark around its calls into the library and the server, never from
// inside them.
type span struct {
	Name string `json:"name"`
	// Op is the op the span belongs to; Parent indexes the enclosing span
	// in the tracer's span list (-1 for the op span itself).
	Op     int64 `json:"op"`
	Parent int   `json:"parent"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans, per-op counters and per-class latency samples in
// memory until the run ends. A nil *tracer records nothing, so op code
// calls it unconditionally.
type tracer struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []span
	sums    map[string]float64
	samples map[string][]time.Duration
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), sums: map[string]float64{}, samples: map[string][]time.Duration{}}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add accumulates a per-op counter.
func (t *tracer) add(key string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sums[key] += v
	t.mu.Unlock()
}

// sample records one latency under a class name.
func (t *tracer) sample(key string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[key] = append(t.samples[key], d)
	t.mu.Unlock()
}

// spanTotals sums, per span name, the spans' durations, their self times
// (duration minus the part of it their children cover) and their number;
// it also returns the summed duration of every op span's direct children.
func spanTotals(spans []span) (total, self map[string]time.Duration, n map[string]int, stages time.Duration) {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	total, self, n = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	for i, s := range spans {
		total[s.Name] += s.dur()
		n[s.Name]++
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			ivs = append(ivs, [2]int64{spans[c].Start, spans[c].End})
			if s.Parent < 0 {
				stages += spans[c].dur()
			}
		}
		self[s.Name] += s.dur() - covered(ivs, s.Start, s.End)
	}
	return total, self, n, stages
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return time.Duration(sum)
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayer fills the per-layer metrics from the untraced phase (runtime
// counters, the overhead baseline) and the traced phase (spans, counters).
// A layer a workload does not reach reports 0.
func perLayer(m map[string]metric, plain, traced *phase, tr *tracer) {
	total, self, n, stages := spanTotals(tr.spans)
	ops := float64(n["op"])
	if ops == 0 {
		ops = 1
	}
	perOp := func(d time.Duration) float64 { return ms(d) / ops }
	sum := func(k string) float64 { return tr.sums[k] / ops }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	set("candgen.ms", perOp(total["candgen"]), "ms")
	set("candgen.pairs", sum("candgen.pairs"), "count")
	set("candgen.share", ratio(float64(total["candgen"]), float64(total["op"])), "ratio")

	set("core.order_ms", perOp(total["order"]), "ms")
	set("core.label_ms", perOp(total["label"]), "ms")
	set("core.self_ms", perOp(self["label"]), "ms")
	set("core.deduced", sum("core.deduced"), "count")
	set("core.deduction_ratio", ratio(tr.sums["core.deduced"], tr.sums["core.deduced"]+tr.sums["core.crowdsourced"]), "ratio")
	set("core.conflicts", sum("core.conflicts"), "count")
	set("core.publishes", sum("core.publishes"), "count")

	set("crowd.call_ms", perOp(total["crowd"]), "ms")
	set("crowd.calls", float64(n["crowd"])/ops, "count")
	set("crowd.hits", sum("crowd.hits"), "count")
	set("crowd.assignments", sum("crowd.assignments"), "count")
	set("crowd.cost_cents", sum("crowd.cost_cents"), "cents")
	set("crowd.hours", sum("crowd.hours"), "h")

	set("clustergraph.clusters_ms", perOp(total["clusters"]), "ms")
	set("clustergraph.clusters", sum("clustergraph.clusters"), "count")

	set("journal.bytes_per_op", sum("journal.bytes"), "bytes")
	set("journal.bytes_per_answer", ratio(tr.sums["journal.bytes"], tr.sums["journal.answers"]), "bytes")
	set("journal.replayed_per_run", sum("journal.replayed"), "count")

	streamRun := time.Duration(0)
	if n["append"] > 0 {
		streamRun = total["label"] // the Join.Run of a streaming session
	}
	set("stream.append_ms", perOp(total["append"]), "ms")
	set("stream.run_ms", perOp(streamRun), "ms")
	set("stream.new_pairs", sum("stream.new_pairs"), "count")
	set("stream.merges", sum("stream.merges"), "count")

	classP50 := func(k string) float64 {
		if len(tr.samples[k]) == 0 {
			return 0
		}
		return ms(medianDur(tr.samples[k]))
	}
	set("server.submit_ms", perOp(total["submit"]), "ms")
	set("server.first_event_ms", sum("server.first_event_ms"), "ms")
	set("server.job_ms_small_p50", classP50("small"), "ms")
	set("server.job_ms_large_p50", classP50("large"), "ms")
	set("server.result_ms", perOp(total["result"]), "ms")
	set("server.sse_events", sum("server.sse_events"), "count")
	set("server.sse_reconnects", sum("server.sse_reconnects"), "count")
	set("server.store_bytes_per_job", sum("server.store_bytes"), "bytes")
	set("server.result_bytes", sum("server.result_bytes"), "bytes")

	done := float64(max(len(plain.lat), 1))
	b, a := plain.memBefore, plain.mem
	set("runtime.alloc_mb_per_op", float64(a.TotalAlloc-b.TotalAlloc)/(1<<20)/done, "MB")
	set("runtime.mallocs_per_op", float64(a.Mallocs-b.Mallocs)/done, "count")
	set("runtime.gc_per_op", float64(a.NumGC-b.NumGC)/done, "count")
	set("runtime.gc_pause_ms_per_op", ms(time.Duration(a.PauseTotalNs-b.PauseTotalNs))/done, "ms")

	set("trace.overhead_ratio", ratio(float64(medianDur(traced.lat)), float64(medianDur(plain.lat))), "ratio")
	set("trace.stage_sum_ratio", ratio(float64(stages), float64(total["op"])), "ratio")
}
