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
// bipartite datasets, at thresholds on both sides of the routing cut and on
// exact rational boundaries, every generator — the auto-routed Candidates,
// PrefixCandidates (unweighted), WeightedPrefixCandidates (IDF), and the
// full token index — returns the byte-identical pair list (same pairs, same
// likelihoods, same order, same IDs) as ExhaustiveCandidates.
func TestCandidatePathsAgreeOnRandomDatasets(t *testing.T) {
	thresholds := []float64{0.04, 0.1, 0.25, 1.0 / 3, 0.5, 0.75, 0.9, 1}
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
					idx, err := IndexCandidates(d, s, th)
					if err != nil {
						t.Fatal(err)
					}
					assertSamePairs(t, name+" index", idx, want)
					if w == Unweighted {
						pre, err := PrefixCandidates(d, s, th)
						if err != nil {
							t.Fatal(err)
						}
						assertSamePairs(t, name+" prefix", pre, want)
					} else {
						pre, err := WeightedPrefixCandidates(d, s, th)
						if err != nil {
							t.Fatal(err)
						}
						assertSamePairs(t, name+" weighted-prefix", pre, want)
					}
				}
			}
		}
	}
}

// TestCandidatesRoutesBelowCutoff: thresholds below the routing constant
// still work (via the full token index) and still match the exhaustive
// reference.
func TestCandidatesRoutesBelowCutoff(t *testing.T) {
	d := randomDataset(rand.New(rand.NewSource(11)), 50, false)
	s := NewScorer(d, Unweighted)
	th := prefixRoutingThreshold / 2
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

// TestWeightedPrefixOnPaperShapedData runs the weighted prefix path on the
// generated Cora/Abt-Buy shapes (realistic token distributions, not token
// soup) against the exhaustive reference.
func TestWeightedPrefixOnPaperShapedData(t *testing.T) {
	for _, d := range []*dataset.Dataset{smallCora(t), smallAbtBuy(t)} {
		s := NewScorer(d, IDFWeighted)
		for _, th := range []float64{0.15, 0.3, 0.5, 0.8} {
			want, err := ExhaustiveCandidates(d, s, th)
			if err != nil {
				t.Fatal(err)
			}
			got, err := WeightedPrefixCandidates(d, s, th)
			if err != nil {
				t.Fatal(err)
			}
			assertSamePairs(t, fmt.Sprintf("%s@%v", d.Name, th), got, want)
		}
	}
}

// TestProbeShardsMatchSerial pins the plain probe queue — the
// full-token-index configuration, the one production path probeShards
// still serves (IndexCandidates) — to one serial probeShard call over the
// whole probe list, on both dataset shapes, with the same probe lengths,
// worker counts, repetitions and back-to-back joins on one pooled scratch
// as TestPositionalShardsMatchSerial.
func TestProbeShardsMatchSerial(t *testing.T) {
	thresholds := []float64{0.25, 0.5}
	for _, d := range queueDatasets(rand.New(rand.NewSource(23))) {
		n := d.Len()
		s := NewScorer(d, Unweighted)
		ps := s.fullTokenSet()
		verifyAt := func(th float64) verifier {
			return func(a, b int32, _ resume) (float64, bool) { return s.verifyJaccard(a, b, th) }
		}
		var probe, build []int32
		if d.Bipartite {
			probe, build = d.SourceA, d.SourceB
		} else {
			for i := 0; i < n; i++ {
				probe = append(probe, int32(i))
			}
		}
		index := buildPostings(s.numTokens, s.numRecords(), build, ps.prefix)
		serial := make([][]core.Pair, len(thresholds))
		for i, th := range thresholds {
			serial[i] = probeShard(ps, index, probe, 0, len(probe), !d.Bipartite, make([]int32, n), verifyAt(th), nil)
			SortByLikelihood(serial[i])
		}
		for _, workers := range queueWorkers {
			for rep := 0; rep < queueReps; rep++ {
				js := s.getScratch()
				for i, th := range thresholds {
					got := probeShards(ps, index, probe, !d.Bipartite, verifyAt(th), workers, js)
					assertSamePairs(t, fmt.Sprintf("%s bipartite=%v n=%d th=%v workers=%d rep=%d", d.Name, d.Bipartite, n, th, workers, rep), got, serial[i])
				}
				s.putScratch(js)
			}
		}
	}
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
