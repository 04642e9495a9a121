package candgen

import (
	"fmt"
	"math/rand"
	"testing"

	"crowdjoin/internal/core"
)

// TestBandCandidatesPartitionCandidates: descending a threshold ladder via
// BandCandidates must partition the flat Candidates set exactly — every pair
// lands in precisely one band (its likelihood's), and re-sorting the union
// reproduces Candidates byte for byte. The ladder descends to 0.01, far
// below every default threshold.
func TestBandCandidatesPartitionCandidates(t *testing.T) {
	ladder := []float64{0.5, 0.3, 0.1, 0.04, 0.01}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, bipartite := range []bool{false, true} {
			d := randomDataset(rng, 40+rng.Intn(40), bipartite)
			if err := d.Validate(); err != nil {
				t.Fatal(err)
			}
			for _, w := range []Weighting{Unweighted, IDFWeighted} {
				s := NewScorer(d, w)
				name := fmt.Sprintf("seed=%d bipartite=%v w=%d", seed, bipartite, w)
				want, err := Candidates(d, s, ladder[len(ladder)-1])
				if err != nil {
					t.Fatal(err)
				}
				var union []core.Pair
				hi := 2.0
				for _, lo := range ladder {
					band, err := BandCandidates(d, s, lo, hi, nil)
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range band {
						if p.Likelihood < lo || p.Likelihood >= hi {
							t.Fatalf("%s: band [%v,%v) produced pair at %v", name, lo, hi, p.Likelihood)
						}
					}
					union = append(union, band...)
					hi = lo
				}
				SortByLikelihood(union)
				for i := range union {
					union[i].ID = i
				}
				assertSamePairs(t, name+" band union", union, want)
			}
		}
	}
}

// TestBandCandidatesKeepFilter: the keep predicate drops exactly the pairs
// it rejects — the band over kept records equals the unfiltered band with
// the rejected pairs removed (and re-identified).
func TestBandCandidatesKeepFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := randomDataset(rng, 60, false)
	s := NewScorer(d, Unweighted)
	keep := func(a, b int32) bool { return (a+b)%3 != 0 }
	for _, band := range [][2]float64{{0.3, 2.0}, {0.1, 0.3}, {0.04, 0.1}} {
		full, err := BandCandidates(d, s, band[0], band[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		filtered, err := BandCandidates(d, s, band[0], band[1], keep)
		if err != nil {
			t.Fatal(err)
		}
		var want []core.Pair
		for _, p := range full {
			if keep(p.A, p.B) {
				p.ID = len(want)
				want = append(want, p)
			}
		}
		assertSamePairs(t, fmt.Sprintf("band [%v,%v) with keep", band[0], band[1]), filtered, want)
	}
}

// TestBandCandidatesValidation rejects empty or out-of-range bands.
func TestBandCandidatesValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := randomDataset(rng, 10, false)
	s := NewScorer(d, Unweighted)
	for _, band := range [][2]float64{{0, 0.5}, {-0.1, 0.5}, {1.1, 1.2}, {0.5, 0.5}, {0.5, 0.3}} {
		if _, err := BandCandidates(d, s, band[0], band[1], nil); err == nil {
			t.Errorf("band [%v,%v) accepted", band[0], band[1])
		}
	}
}

// TestCandidateLikelihoodsAreExactSimilarities pins the verification
// kernels' scores to the reference Scorer.Similarity, bit for bit: every
// candidate pair's Likelihood — from Candidates and BandCandidates,
// weighted and unweighted — must equal the similarity computed
// directly from the token sets. The labeling order, the triage bands, and
// the cascade's band edges all key off these scores, so an approximate or
// path-dependent value would silently reshard sessions.
func TestCandidateLikelihoodsAreExactSimilarities(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		for _, bipartite := range []bool{false, true} {
			d := randomDataset(rng, 50+rng.Intn(30), bipartite)
			if err := d.Validate(); err != nil {
				t.Fatal(err)
			}
			for _, w := range []Weighting{Unweighted, IDFWeighted} {
				s := NewScorer(d, w)
				check := func(label string, pairs []core.Pair, err error) {
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range pairs {
						if want := s.Similarity(p.A, p.B); p.Likelihood != want {
							t.Fatalf("seed=%d bipartite=%v w=%d %s: pair (%d,%d) scored %v, Similarity says %v",
								seed, bipartite, w, label, p.A, p.B, p.Likelihood, want)
						}
					}
				}
				for _, th := range []float64{0.04, 0.3, 0.6} {
					pairs, err := Candidates(d, s, th)
					check(fmt.Sprintf("Candidates(%v)", th), pairs, err)
				}
				band, err := BandCandidates(d, s, 0.2, 0.5, nil)
				check("BandCandidates(0.2,0.5)", band, err)
			}
		}
	}
}
