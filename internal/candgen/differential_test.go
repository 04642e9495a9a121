package candgen

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"crowdjoin/internal/core"
	"crowdjoin/internal/dataset"
)

// randomDataset builds a dataset of n records with random token-soup texts
// over a small vocabulary, so token sets overlap heavily and threshold
// boundaries (including exact rational similarities like 1/3 or 3/10) are
// actually hit. A few records tokenize to nothing (punctuation-only text),
// pinning the shared-token contract: such records never form candidates on
// any path. Ground truth is irrelevant for candidate generation.
func randomDataset(rng *rand.Rand, n int, bipartite bool) *dataset.Dataset {
	const vocab = 40
	d := &dataset.Dataset{Name: "random", NumEntities: 1, Bipartite: bipartite}
	for i := 0; i < n; i++ {
		var b strings.Builder
		if rng.Intn(12) > 0 { // ~1 in 12 records stays token-free
			tokens := 1 + rng.Intn(12)
			for t := 0; t < tokens; t++ {
				if t > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "w%d", rng.Intn(vocab))
			}
		} else {
			b.WriteString("--- !?")
		}
		d.Records = append(d.Records, dataset.Record{
			ID:     int32(i),
			Source: "a",
			Fields: []dataset.Field{{Name: "text", Value: b.String()}},
		})
	}
	if bipartite {
		split := n/2 + rng.Intn(3) - 1
		for i := range d.Records {
			if i < split {
				d.SourceA = append(d.SourceA, int32(i))
			} else {
				d.Records[i].Source = "b"
				d.SourceB = append(d.SourceB, int32(i))
			}
		}
	}
	return d
}

func assertSamePairs(t *testing.T, label string, got, want []core.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d differs: %v vs %v", label, i, got[i], want[i])
		}
	}
}

// TestCandidatePathsAgreeOnRandomDatasets is the differential test for the
// whole candidate-generation surface: on randomized unipartite and
// bipartite datasets, at thresholds down to 1e-9 and on exact rational
// boundaries, Candidates — the positional engine, unweighted and
// IDF-weighted — returns the byte-identical pair list (same pairs, same
// likelihoods, same order, same IDs) as ExhaustiveCandidates.
func TestCandidatePathsAgreeOnRandomDatasets(t *testing.T) {
	thresholds := []float64{1e-9, 0.001, 0.01, 0.04, 0.1, 0.25, 1.0 / 3, 0.5, 0.75, 0.9, 1}
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, bipartite := range []bool{false, true} {
			d := randomDataset(rng, 40+rng.Intn(40), bipartite)
			if err := d.Validate(); err != nil {
				t.Fatal(err)
			}
			for _, w := range []Weighting{Unweighted, IDFWeighted} {
				s := NewScorer(d, w)
				for _, th := range thresholds {
					name := fmt.Sprintf("seed=%d bipartite=%v w=%d th=%v", seed, bipartite, w, th)
					want, err := ExhaustiveCandidates(d, s, th)
					if err != nil {
						t.Fatal(err)
					}
					auto, err := Candidates(d, s, th)
					if err != nil {
						t.Fatal(err)
					}
					assertSamePairs(t, name+" auto", auto, want)
				}
			}
		}
	}
}

// TestCandidatesRoutesBelowCutoff: a threshold below every default and
// benchmark workload, where the prefixes cover nearly whole token lists,
// still matches the exhaustive reference.
func TestCandidatesRoutesBelowCutoff(t *testing.T) {
	d := randomDataset(rand.New(rand.NewSource(11)), 50, false)
	s := NewScorer(d, Unweighted)
	th := 0.025
	got, err := Candidates(d, s, th)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExhaustiveCandidates(d, s, th)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePairs(t, "below-cutoff", got, want)
}

// assertPaperShapedMatchExhaustive runs Candidates on the generated
// Cora/Abt-Buy shapes (realistic token distributions, not token soup) with
// weighting w at each threshold and checks it against the exhaustive
// reference. The prefix-filter tests below are its rows.
func assertPaperShapedMatchExhaustive(t *testing.T, w Weighting, thresholds []float64) {
	t.Helper()
	for _, d := range []*dataset.Dataset{smallCora(t), smallAbtBuy(t)} {
		s := NewScorer(d, w)
		for _, th := range thresholds {
			want, err := ExhaustiveCandidates(d, s, th)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Candidates(d, s, th)
			if err != nil {
				t.Fatal(err)
			}
			assertSamePairs(t, fmt.Sprintf("%s w=%d th=%v", d.Name, w, th), got, want)
		}
	}
}

// TestPrefixMatchesFullIndex: unweighted prefix filtering returns exactly
// the candidates of an un-truncated scan on both dataset shapes, across
// thresholds.
func TestPrefixMatchesFullIndex(t *testing.T) {
	assertPaperShapedMatchExhaustive(t, Unweighted, []float64{0.15, 0.2, 0.3, 0.5, 0.8})
}

// TestPrefixHighThreshold: at a high threshold, where the prefixes are
// shortest, the prefix path still finds every pair the exhaustive scan does
// and no pair below the threshold.
func TestPrefixHighThreshold(t *testing.T) {
	assertPaperShapedMatchExhaustive(t, Unweighted, []float64{0.9})
	d := smallCora(t)
	got, err := Candidates(d, NewScorer(d, Unweighted), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range got {
		if p.Likelihood < 0.9 {
			t.Fatalf("pair %v below threshold", p)
		}
	}
}

// TestWeightedPrefixOnPaperShapedData: the IDF-weighted prefix bound keeps
// every pair the exhaustive scan finds, up to a high threshold.
func TestWeightedPrefixOnPaperShapedData(t *testing.T) {
	assertPaperShapedMatchExhaustive(t, IDFWeighted, []float64{0.15, 0.2, 0.3, 0.5, 0.8, 0.9})
}

// TestScorerCachesTokenStats: NumTokens and document frequencies are
// computed once at construction — NumTokens is O(1) and consistent for both
// weightings, and df sums to the arena length.
func TestScorerCachesTokenStats(t *testing.T) {
	d := randomDataset(rand.New(rand.NewSource(31)), 60, false)
	su := NewScorer(d, Unweighted)
	sw := NewScorer(d, IDFWeighted)
	if su.NumTokens() != sw.NumTokens() {
		t.Fatalf("NumTokens differs by weighting: %d vs %d", su.NumTokens(), sw.NumTokens())
	}
	if su.NumTokens() != len(su.df) {
		t.Fatalf("NumTokens %d != len(df) %d", su.NumTokens(), len(su.df))
	}
	var sum int
	for _, f := range su.df {
		if f <= 0 {
			t.Fatal("token with non-positive document frequency")
		}
		sum += int(f)
	}
	if sum != len(su.arena) {
		t.Fatalf("df sums to %d, arena holds %d tokens", sum, len(su.arena))
	}
	for r := int32(0); r < int32(d.Len()); r++ {
		if su.size(r) != len(su.tok(r)) {
			t.Fatalf("record %d: size %d != len(tok) %d", r, su.size(r), len(su.tok(r)))
		}
	}
}
