package main

import (
	"strings"
	"testing"
)

func TestTrimProcs(t *testing.T) {
	cases := []struct{ in, want string }{
		// The plain case: strip the trailing -GOMAXPROCS.
		{"BenchmarkCandidates-8", "BenchmarkCandidates"},
		{"BenchmarkStreamingAppend-16", "BenchmarkStreamingAppend"},
		{"BenchmarkCandidates-128", "BenchmarkCandidates"},
		// Hyphenated sub-benchmark names: only the trailing digit run goes.
		{"BenchmarkGiantComponent/k=4-balanced-8", "BenchmarkGiantComponent/k=4-balanced"},
		{"BenchmarkGiantComponent/k=4-balanced", "BenchmarkGiantComponent/k=4-balanced"},
		{"BenchmarkRouting/giant-vs-small-4", "BenchmarkRouting/giant-vs-small"},
		// A trailing hyphen-run that is not all digits stays.
		{"BenchmarkFoo-v2", "BenchmarkFoo-v2"},
		{"BenchmarkFoo-8a", "BenchmarkFoo-8a"},
		// No hyphen, nothing to strip.
		{"BenchmarkFoo", "BenchmarkFoo"},
		{"BenchmarkFoo/sub", "BenchmarkFoo/sub"},
		// A sub-benchmark that is itself numeric after the last hyphen is
		// indistinguishable from a procs suffix; the procs reading wins.
		{"BenchmarkFoo/n=10-2", "BenchmarkFoo/n=10"},
		// Degenerate shapes must not panic or mis-slice.
		{"Benchmark-", "Benchmark-"},
		{"-8", ""},
	}
	for _, c := range cases {
		if got := trimProcs(c.in); got != c.want {
			t.Errorf("trimProcs(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParse(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: crowdjoin/internal/candgen
BenchmarkCandidates-8   	     100	  11083000 ns/op	 5120000 B/op	    2048 allocs/op
BenchmarkGiantComponent/k=4-balanced-8         	      50	  22000000 ns/op
some unrelated line
BenchmarkBroken-8 notanumber 5 ns/op
PASS
ok  	crowdjoin/internal/candgen	2.5s
`
	benches, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(benches) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(benches), benches)
	}
	b := benches[0]
	if b.Name != "BenchmarkCandidates" {
		t.Errorf("name = %q, want BenchmarkCandidates", b.Name)
	}
	if b.Iterations != 100 {
		t.Errorf("iterations = %d, want 100", b.Iterations)
	}
	if ns := b.Metrics["ns/op"]; ns != 11083000 {
		t.Errorf("ns/op = %v, want 11083000", ns)
	}
	if bop := b.Metrics["B/op"]; bop != 5120000 {
		t.Errorf("B/op = %v, want 5120000", bop)
	}
	if al := b.Metrics["allocs/op"]; al != 2048 {
		t.Errorf("allocs/op = %v, want 2048", al)
	}
	sub := benches[1]
	if sub.Name != "BenchmarkGiantComponent/k=4-balanced" {
		t.Errorf("sub-benchmark name = %q, want BenchmarkGiantComponent/k=4-balanced (hyphens kept, -8 stripped)", sub.Name)
	}
	if ns := sub.Metrics["ns/op"]; ns != 22000000 {
		t.Errorf("sub ns/op = %v, want 22000000", ns)
	}
}

func TestBestNs(t *testing.T) {
	benches := []Benchmark{
		{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 300}},
		{Name: "BenchmarkB", Metrics: map[string]float64{"ns/op": 50}},
		{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 200}},
		{Name: "BenchmarkNoNs", Metrics: map[string]float64{"B/op": 1}},
	}
	best, order := bestNs(benches)
	if best["BenchmarkA"] != 200 {
		t.Errorf("best ns for A = %v, want 200 (min across repeats)", best["BenchmarkA"])
	}
	if best["BenchmarkB"] != 50 {
		t.Errorf("best ns for B = %v, want 50", best["BenchmarkB"])
	}
	if _, ok := best["BenchmarkNoNs"]; ok {
		t.Error("benchmark without ns/op must not be ranked")
	}
	wantOrder := []string{"BenchmarkA", "BenchmarkB"}
	if len(order) != len(wantOrder) {
		t.Fatalf("order = %v, want %v", order, wantOrder)
	}
	for i := range wantOrder {
		if order[i] != wantOrder[i] {
			t.Fatalf("order = %v, want %v (first-seen order)", order, wantOrder)
		}
	}
}

func TestGated(t *testing.T) {
	for name, want := range map[string]bool{
		"BenchmarkCandidatesPositional": true,
		"BenchmarkStreamingAppend":      true,
		"BenchmarkStreamingStep":        true,
		"BenchmarkGiantComponent/k=4":   true,
		"BenchmarkPlatformInstant":      true,
		"BenchmarkJoinEndToEnd":         true,
		"BenchmarkCandidatesFromTexts":  true,
		"BenchmarkServerEventStream":    true,
		"BenchmarkServerThroughput":     false,
		"BenchmarkJournalReplay":        false,
		"BenchmarkSomethingElse":        false,
	} {
		if got := gated(name); got != want {
			t.Errorf("gated(%q) = %v, want %v", name, got, want)
		}
	}
}
