package candgen

import (
	"fmt"
	"math/rand"
	"testing"

	"crowdjoin/internal/dataset"
)

// noResume is the resume state of a pair checked without a probe loop:
// no match tracked, no popcount cached, so verification runs from token 0.
var noResume = resume{xi: -1, yj: -1, shared: -1}

// TestResumedVerifiersAgreeWithSimilarity checks the resumed kernels from
// a cold start (noResume): for every pair of a mixed corpus — degenerate
// and random records, paper-shaped text — the unweighted kernel must
// return the exact Similarity value whenever it accepts, and both kernels
// must accept exactly the pairs whose similarity reaches the threshold.
// The unweighted miss budgets subsume the size filter, so no pre-filtering
// is needed even for wildly mismatched sizes.
func TestResumedVerifiersAgreeWithSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name string
		d    *dataset.Dataset
	}{
		{name: "degenerate", d: degenerateDataset(rng, 40, false)},
		{name: "random", d: randomDataset(rng, 60, false)},
		{name: "cora", d: smallCora(t)},
	}
	for _, tc := range cases {
		for _, w := range []Weighting{Unweighted, IDFWeighted} {
			s := NewScorer(tc.d, w)
			s.ensureRankArena()
			for _, th := range []float64{0.05, 0.3, 0.5, 1} {
				for a := int32(0); a < int32(tc.d.Len()); a++ {
					for b := a + 1; b < int32(tc.d.Len()); b++ {
						want := s.Similarity(a, b)
						var sim float64
						var ok bool
						if w == Unweighted {
							sim, ok = s.verifyJaccardResumed(a, b, noResume, th)
						} else {
							sim, ok = s.verifyWeightedResumed(a, b, noResume, th)
						}
						if ok != (want >= th) {
							t.Fatalf("%s w=%d th=%v pair (%d,%d): accepted=%v, Similarity=%v", tc.name, w, th, a, b, ok, want)
						}
						if ok && sim != want {
							t.Fatalf("%s w=%d th=%v pair (%d,%d): sim=%v, Similarity=%v", tc.name, w, th, a, b, sim, want)
						}
					}
				}
			}
		}
	}
}

// TestKernelTogglesStayExact runs the positional paths against the
// exhaustive reference with the frequent-token bitset, the kernel's one
// ablation toggle, off, tiny, and on at a small size ("all-on"): the
// bitset rows trade speed only — the emitted pair sets must stay
// byte-identical under all of them.
func TestKernelTogglesStayExact(t *testing.T) {
	configs := []struct {
		name string
		freq int
	}{
		{name: "no-bitset", freq: 0},
		{name: "tiny-bitset", freq: 8},
		{name: "all-on", freq: 16},
	}
	rng := rand.New(rand.NewSource(11))
	datasets := []*dataset.Dataset{
		randomDataset(rng, 80, false),
		randomDataset(rng, 80, true),
		smallCora(t),
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			defer func(f int) { freqTokens = f }(freqTokens)
			freqTokens = cfg.freq
			for di, d := range datasets {
				for _, w := range []Weighting{Unweighted, IDFWeighted} {
					// Fresh scorer per config: freqTokens is consumed when
					// the rank arenas are first built.
					s := NewScorer(d, w)
					for _, th := range []float64{0.1, 0.3, 0.7} {
						want, err := ExhaustiveCandidates(d, s, th)
						if err != nil {
							t.Fatal(err)
						}
						got, err := Candidates(d, s, th)
						if err != nil {
							t.Fatal(err)
						}
						assertSamePairs(t, fmt.Sprintf("d=%d w=%d th=%v", di, w, th), got, want)
					}
				}
			}
		})
	}
}
