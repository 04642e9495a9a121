package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{10, 0, 0, false},
		{50, 80, 10, true},
		{100, 90, 10, true},
		{999, 90, 99, true},
		{1000, 99, 10, true},
		{9999, 99, 99, true},
		{10000, 99.9, 10, true},
	}
	for _, c := range cases {
		p, beyond, ok := tailPercentile(c.n)
		if p != c.p || beyond != c.beyond || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%g, %d beyond, %v; want p%g, %d, %v", c.n, p, beyond, ok, c.p, c.beyond, c.ok)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	var sorted []time.Duration
	for i := 1; i <= 200; i++ {
		sorted = append(sorted, time.Duration(i))
	}
	if got := percentile(sorted, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %d, want 190", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestWindowRate(t *testing.T) {
	// Windows of 2 ops: [0,1s) 2/s, [1s,2s) 2/s, [2s,6s) 0.5/s (a stall);
	// the trailing op completes no window.
	at := []time.Duration{500 * time.Millisecond, time.Second, 1500 * time.Millisecond, 2 * time.Second,
		3 * time.Second, 6 * time.Second, 7 * time.Second}
	rate, windows := windowRate(at, 2)
	if rate != 2 || windows != 3 {
		t.Errorf("windowRate = %v over %d windows, want 2 over 3", rate, windows)
	}
}

func TestStratify(t *testing.T) {
	// Costs 0..11 in 3 windows of 4: every window takes one item from each
	// stratum of 3 ranks, snaking, so each window's costs sum to 22.
	items := []int{7, 2, 11, 0, 5, 9, 1, 4, 10, 3, 8, 6}
	got := stratify(items, 4, func(x *int) float64 { return float64(*x) })
	want := []int{0, 5, 6, 11, 1, 4, 7, 10, 2, 3, 8, 9}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stratify = %v, want %v", got, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// op [0,100) holds stage a [10,40) — with child c [20,30) — and stage b
	// [35,60), which overlaps a.
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "c", Parent: 1, Start: 20, End: 30},
		{Name: "b", Parent: 0, Start: 35, End: 60},
	}
	total, self, n, stages := spanTotals(spans)
	if self["op"] != 50 {
		t.Errorf("op self = %d, want 50 (100 minus the union [10,60))", self["op"])
	}
	if self["a"] != 20 || self["c"] != 10 || self["b"] != 25 {
		t.Errorf("self a,c,b = %d,%d,%d; want 20,10,25", self["a"], self["c"], self["b"])
	}
	if stages != 55 {
		t.Errorf("stage sum = %d, want 55", stages)
	}
	if total["op"] != 100 || n["op"] != 1 {
		t.Errorf("op total %d over %d spans, want 100 over 1", total["op"], n["op"])
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("op", 0, -1)
	tr.end(id)
	tr.add("x", 1)
	tr.sample("x", time.Second)
	if id != -1 {
		t.Fatalf("nil tracer begin = %d, want -1", id)
	}
}

func TestCorpusDeterministic(t *testing.T) {
	a, b := paperCorpus(300, subSeed(7, 3)), paperCorpus(300, subSeed(7, 3))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different corpora")
	}
	if c := paperCorpus(300, subSeed(8, 3)); reflect.DeepEqual(a.texts, c.texts) {
		t.Fatal("different run seeds generated the same corpus")
	}
	p, q := productCorpus(100, 5), productCorpus(100, 5)
	if !reflect.DeepEqual(p, q) || p.nA != 100 || len(p.texts) != 200 {
		t.Fatalf("product corpus not deterministic or mis-sized (nA %d, %d texts)", p.nA, len(p.texts))
	}
}

// TestCountsDeterministic sets each library workload up twice with one
// seed: the count metrics must repeat exactly, and every op must pass its
// output check.
func TestCountsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up full workloads")
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var first countMetrics
			for i := 0; i < 2; i++ {
				inst, err := wl.setup(3, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				for k := 0; k < 3; k++ {
					if _, err := inst.op(nil); err != nil {
						t.Error(err)
					}
				}
				c := inst.counts()
				if err := inst.close(); err != nil {
					t.Fatal(err)
				}
				if c.questions <= 0 || c.rounds <= 0 || c.f1 <= 0 {
					t.Fatalf("count metrics must be positive, got %+v", c)
				}
				if i == 0 {
					first = c
				} else if c != first {
					t.Fatalf("counts differ between set-ups with one seed: %+v vs %+v", first, c)
				}
			}
		})
	}
}

func TestReadSSE(t *testing.T) {
	stream := "retry: 1000\n\n: comment\nid: 4\nevent: state\ndata: {\"state\":\ndata: data2\n\nid: 5\ndata: x\n\n"
	var got []sseEvent
	if err := readSSE(strings.NewReader(stream), func(e sseEvent) bool { got = append(got, e); return true }); err != nil {
		t.Fatal(err)
	}
	want := []sseEvent{{id: "4", event: "state", data: "{\"state\":\ndata2"}, {id: "5", data: "x"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("events = %+v, want %+v", got, want)
	}
}

// TestFollowJobReconnects: the first stream ends after two events, as when
// the hub drops a lagging subscriber; the client must reconnect with
// Last-Event-ID and count one reconnect before the terminal event.
func TestFollowJobReconnects(t *testing.T) {
	var conns atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		switch conns.Add(1) {
		case 1:
			fmt.Fprint(w, "retry: 1000\n\nid: 0\nevent: state\ndata: {\"state\":\"running\"}\n\nid: 1\nevent: pair-deduced\ndata: {}\n\n")
		default:
			if got := r.Header.Get("Last-Event-ID"); got != "1" {
				t.Errorf("reconnect Last-Event-ID = %q, want 1", got)
			}
			fmt.Fprint(w, "id: 2\nevent: state\ndata: {\"state\":\"done\"}\n\n")
		}
	}))
	defer ts.Close()
	f, err := followJob(context.Background(), ts.Client(), ts.URL, "j")
	if err != nil {
		t.Fatal(err)
	}
	if f.state != "done" || f.events != 3 || f.reconnects != 1 {
		t.Fatalf("follow = %+v, want done after 3 events and 1 reconnect", f)
	}
}

// TestFollowJobTimesOut: a job whose terminal event never comes fails
// when the op's deadline passes instead of hanging.
func TestFollowJobTimesOut(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "id: 0\nevent: state\ndata: {\"state\":\"running\"}\n\n")
	}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := followJob(ctx, ts.Client(), ts.URL, "j"); err == nil {
		t.Fatal("followJob returned without a terminal event and without an error")
	}
}
