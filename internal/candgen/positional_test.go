package candgen

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"crowdjoin/internal/core"
	"crowdjoin/internal/dataset"
)

// degenerateDataset builds a dataset dominated by degenerate records:
// token-free (punctuation-only), single-token, and a few two-token
// records, over a tiny vocabulary so exact duplicates and boundary
// similarities (0, 1/2, 1) are common.
func degenerateDataset(rng *rand.Rand, n int, bipartite bool) *dataset.Dataset {
	d := &dataset.Dataset{Name: "degenerate", NumEntities: 1, Bipartite: bipartite}
	for i := 0; i < n; i++ {
		var text string
		switch rng.Intn(4) {
		case 0:
			text = "--- !?" // tokenizes to nothing
		case 1, 2:
			text = fmt.Sprintf("w%d", rng.Intn(5))
		default:
			text = fmt.Sprintf("w%d w%d", rng.Intn(5), rng.Intn(5))
		}
		d.Records = append(d.Records, dataset.Record{
			ID:     int32(i),
			Source: "a",
			Fields: []dataset.Field{{Name: "text", Value: text}},
		})
	}
	if bipartite {
		split := n / 2
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

// TestDegenerateRecordsAllPaths: empty and single-token records exercise
// every clamp in the prefix/index/positional bounds (prefix lengths of 1,
// zero-length suffixes, likelihood-1 duplicates). Every candidate path
// must stay byte-identical to ExhaustiveCandidates, including at the
// routing cutoff (t = 0.05, the smallest prefix-routed threshold, and
// just below it) and at t = 1.
func TestDegenerateRecordsAllPaths(t *testing.T) {
	thresholds := []float64{prefixRoutingThreshold / 2, prefixRoutingThreshold, 0.5, 1}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, bipartite := range []bool{false, true} {
			d := degenerateDataset(rng, 30+rng.Intn(30), bipartite)
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
						assertSamePairs(t, name+" positional", pre, want)
					} else {
						pre, err := WeightedPrefixCandidates(d, s, th)
						if err != nil {
							t.Fatal(err)
						}
						assertSamePairs(t, name+" weighted-positional", pre, want)
					}
				}
			}
		}
	}
}

// TestVerifyJaccardDegenerateAgreesWithSimilarity pins verifyJaccard's
// union == 0 → 1 branch (two token-free records) and the empty-vs-nonempty
// case against Scorer.Similarity: whatever similarity the verifier
// reports for a degenerate pair must be the exact value Similarity
// computes, at every threshold including 1.
func TestVerifyJaccardDegenerateAgreesWithSimilarity(t *testing.T) {
	texts := []string{"--- !?", "...", "w1", "w1 w2"}
	d := &dataset.Dataset{Name: "deg", NumEntities: 1}
	for i, txt := range texts {
		d.Records = append(d.Records, dataset.Record{
			ID:     int32(i),
			Source: "a",
			Fields: []dataset.Field{{Name: "text", Value: txt}},
		})
	}
	s := NewScorer(d, Unweighted)
	for _, th := range []float64{0.05, 0.5, 1} {
		for a := int32(0); a < int32(len(texts)); a++ {
			for b := a + 1; b < int32(len(texts)); b++ {
				want := s.Similarity(a, b)
				sim, ok := s.verifyJaccard(a, b, th)
				if ok != (want >= th) {
					t.Fatalf("verifyJaccard(%d,%d,t=%v) accepted=%v, Similarity=%v", a, b, th, ok, want)
				}
				if ok && sim != want {
					t.Fatalf("verifyJaccard(%d,%d,t=%v) = %v, Similarity = %v", a, b, th, sim, want)
				}
			}
		}
	}
	// The empty-empty pair is the union == 0 branch: degenerate similarity
	// 1 from both the verifier and the scorer (candidate generation filters
	// the pair out via the shared-token contract, not by scoring it 0).
	if sim, ok := s.verifyJaccard(0, 1, 1); !ok || sim != 1 {
		t.Fatalf("verifyJaccard on two empty records = (%v, %v), want (1, true)", sim, ok)
	}
	if got := s.Similarity(0, 1); got != 1 {
		t.Fatalf("Similarity on two empty records = %v, want 1", got)
	}
}

// queueDatasets are the corpora of the probe-queue tests: random token
// soups of both shapes whose probe lists are not a multiple of probeChunk
// and are shorter than one chunk per worker at the larger forced worker
// counts (so some workers claim nothing), plus identical records repeating
// every probeChunk ids, whose partners a mark taken relative to the chunk
// would skip.
func queueDatasets(rng *rand.Rand) []*dataset.Dataset {
	var ds []*dataset.Dataset
	for _, bipartite := range []bool{false, true} {
		for _, n := range []int{150, 43} {
			ds = append(ds, randomDataset(rng, n, bipartite))
		}
	}
	periodic := &dataset.Dataset{Name: "periodic", NumEntities: 1}
	for i := 0; i < 150; i++ {
		c := i % probeChunk
		periodic.Records = append(periodic.Records, dataset.Record{
			ID:     int32(i),
			Source: "a",
			Fields: []dataset.Field{{Name: "text", Value: fmt.Sprintf("p%d q%d", c, c)}},
		})
	}
	return append(ds, periodic)
}

// queueWorkers are the forced worker counts of the probe-queue tests; each
// runs queueReps times, so chunk claims interleave differently.
var queueWorkers = []int{1, 2, 3, 7, 16}

const queueReps = 20

// TestPositionalShardsMatchSerial pins the positional probe queue to one
// serial kernel call over the whole probe list, for both weightings and
// both dataset shapes: every forced worker count must return exactly the
// serial pairs in SortByLikelihood order. Each repetition runs two joins
// back to back on one of the scorer's pooled scratches, at different
// thresholds, so marks left by the first join would show in the second.
func TestPositionalShardsMatchSerial(t *testing.T) {
	thresholds := []float64{0.25, 0.5}
	for _, d := range queueDatasets(rand.New(rand.NewSource(41))) {
		n := d.Len()
		for _, w := range []Weighting{Unweighted, IDFWeighted} {
			s := NewScorer(d, w)
			verifyAt := func(th float64) verifier {
				if w == Unweighted {
					return func(a, b int32, rs resume) (float64, bool) { return s.verifyJaccardResumed(a, b, rs, th) }
				}
				return func(a, b int32, rs resume) (float64, bool) { return s.verifyWeightedResumed(a, b, rs, th) }
			}
			serial := make([][]core.Pair, len(thresholds))
			for i, th := range thresholds {
				ps := buildPositionalSet(d, s, th, nil)
				ix := buildPositionalPostings(ps, nil)
				var sc shardScratch
				sc.ensure(n)
				positionalProbeShard(ps, ix, ps.order, 0, n, &sc, verifyAt(th))
				SortByLikelihood(sc.pairs)
				serial[i] = sc.pairs
			}
			for _, workers := range queueWorkers {
				for rep := 0; rep < queueReps; rep++ {
					js := s.getScratch()
					for i, th := range thresholds {
						ps := buildPositionalSet(d, s, th, js)
						ix := buildPositionalPostings(ps, js)
						got := positionalShards(ps, ix, ps.order, verifyAt(th), workers, js)
						assertSamePairs(t, fmt.Sprintf("%s bipartite=%v n=%d w=%d th=%v workers=%d rep=%d", d.Name, d.Bipartite, n, w, th, workers, rep), got, serial[i])
					}
					s.putScratch(js)
				}
			}
		}
	}
}

// TestProbeWorkers pins the fork rule: the worker count depends only on
// the probe count and GOMAXPROCS, one worker below minForkProbes, and
// never more workers than the list has chunks.
func TestProbeWorkers(t *testing.T) {
	for _, c := range []struct{ probes, procs, want int }{
		{997, 2, 2}, // the Paper corpus on two CPUs; the √-split rule gave 1
		{997, 1, 1},
		{minForkProbes - 1, 2, 1},
		{minForkProbes - 1, 64, 1},
		{0, 8, 1},
		{minForkProbes, 2, 2},
		{minForkProbes, 1000, (minForkProbes + probeChunk - 1) / probeChunk},
		{100000, 8, 8},
	} {
		if got := probeWorkers(c.probes, c.procs); got != c.want {
			t.Errorf("probeWorkers(%d, %d) = %d, want %d", c.probes, c.procs, got, c.want)
		}
	}
	for probes := 0; probes <= 4*minForkProbes; probes++ {
		for _, procs := range []int{1, 2, 3, 64, 1024} {
			got := probeWorkers(probes, procs)
			chunks := (probes + probeChunk - 1) / probeChunk
			if got < 1 || got > procs || (probes > 0 && got > chunks) {
				t.Fatalf("probeWorkers(%d, %d) = %d: outside [1, min(procs, %d chunks)]", probes, procs, got, chunks)
			}
		}
	}
}

// TestIndexPrefixShorterThanProbePrefix: the 2t/(1+t) index bound must
// never exceed the t probe bound (that asymmetry is the whole point of
// size-ordered processing), and both stay within [1, n] for every size.
func TestIndexPrefixShorterThanProbePrefix(t *testing.T) {
	for _, th := range []float64{0.05, 0.1, 1.0 / 3, 0.5, 0.75, 0.9, 1} {
		for n := 1; n <= 64; n++ {
			p, ip := unweightedPrefixLen(n, th), unweightedIndexPrefixLen(n, th)
			if ip > p {
				t.Fatalf("n=%d t=%v: index prefix %d longer than probe prefix %d", n, th, ip, p)
			}
			if p < 1 || p > n || ip < 1 {
				t.Fatalf("n=%d t=%v: prefix lengths (%d, %d) out of range", n, th, p, ip)
			}
		}
	}
	// Weighted: same invariant over a realistic corpus.
	d := smallCora(t)
	s := NewScorer(d, IDFWeighted)
	for _, th := range []float64{0.05, 0.3, 0.8, 1} {
		ps := buildPositionalSet(d, s, th, nil)
		for r := int32(0); r < int32(d.Len()); r++ {
			if s.size(r) == 0 {
				continue
			}
			if ps.iplen[r] > ps.plen[r] || ps.iplen[r] < 1 || int(ps.plen[r]) > s.size(r) {
				t.Fatalf("t=%v record %d: plen=%d iplen=%d size=%d", th, r, ps.plen[r], ps.iplen[r], s.size(r))
			}
		}
	}
}

// TestPositionalSizeOrder: the processing order is size-ascending
// (weight-ascending for IDF) with record-id tie-breaks, and pos is its
// inverse — the invariant the index-prefix bound rests on.
func TestPositionalSizeOrder(t *testing.T) {
	d := randomDataset(rand.New(rand.NewSource(53)), 80, false)
	for _, w := range []Weighting{Unweighted, IDFWeighted} {
		s := NewScorer(d, w)
		ps := buildPositionalSet(d, s, 0.3, nil)
		for i := 1; i < len(ps.order); i++ {
			a, b := ps.order[i-1], ps.order[i]
			var ka, kb float64
			if w == Unweighted {
				ka, kb = float64(s.size(a)), float64(s.size(b))
			} else {
				ka, kb = s.recWeight[a], s.recWeight[b]
			}
			if ka > kb || (ka == kb && a >= b) {
				t.Fatalf("w=%d: order[%d]=%d (key %v) before order[%d]=%d (key %v)", w, i-1, a, ka, i, b, kb)
			}
		}
		for i, r := range ps.order {
			if ps.pos[r] != int32(i) {
				t.Fatalf("w=%d: pos[%d]=%d, want %d", w, r, ps.pos[r], i)
			}
		}
	}
}

// TestPositionalSingleTokenStrings: a corpus of pure duplicates and
// disjoint singletons — likelihoods are exactly 0 or 1, the smallest
// record sizes the bounds ever see.
func TestPositionalSingleTokenStrings(t *testing.T) {
	texts := []string{"alpha", "alpha", "beta", "gamma", "beta", strings.Repeat("alpha ", 1)}
	d := &dataset.Dataset{Name: "singletons", NumEntities: 1}
	for i, txt := range texts {
		d.Records = append(d.Records, dataset.Record{
			ID:     int32(i),
			Source: "a",
			Fields: []dataset.Field{{Name: "text", Value: txt}},
		})
	}
	for _, w := range []Weighting{Unweighted, IDFWeighted} {
		s := NewScorer(d, w)
		for _, th := range []float64{0.05, 0.5, 1} {
			want, err := ExhaustiveCandidates(d, s, th)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Candidates(d, s, th)
			if err != nil {
				t.Fatal(err)
			}
			assertSamePairs(t, fmt.Sprintf("w=%d th=%v", w, th), got, want)
			// Every emitted pair is an exact duplicate: likelihood 1.
			for _, p := range got {
				if p.Likelihood != 1 {
					t.Fatalf("w=%d th=%v: singleton pair %v has likelihood %v, want 1", w, th, p, p.Likelihood)
				}
			}
		}
	}
}
