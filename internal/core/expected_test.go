package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestExample4ExpectedCosts reproduces Example 4: the triangle with matching
// probabilities 0.9, 0.5, 0.1 has expected crowdsourced counts
// 2.09, 2.17, 2.83, 2.09, 2.17, 2.83 for the six orders.
func TestExample4ExpectedCosts(t *testing.T) {
	p := triangle(0.9, 0.5, 0.1)
	worlds, err := ConsistentWorlds(3, p)
	if err != nil {
		t.Fatal(err)
	}
	// The paper enumerates exactly five consistent possibilities: MMM, NMN,
	// MNN, NNM, NNN (the three with two matching and one non-matching are
	// inconsistent).
	if len(worlds) != 5 {
		t.Fatalf("got %d consistent worlds, want 5", len(worlds))
	}
	sum := 0.0
	for _, w := range worlds {
		sum += w.P
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("world probabilities sum to %v, want 1", sum)
	}

	orders := [][]Pair{
		{p[0], p[1], p[2]}, // ω1
		{p[0], p[2], p[1]}, // ω2
		{p[1], p[2], p[0]}, // ω3
		{p[1], p[0], p[2]}, // ω4
		{p[2], p[0], p[1]}, // ω5
		{p[2], p[1], p[0]}, // ω6
	}
	// Exact values: ω1/ω4 = 2 + 0.05/0.545, ω2/ω5 = 2 + 0.09/0.545,
	// ω3/ω6 = 2 + 0.45/0.545. The paper rounds to 2.09/2.17/2.83.
	want := []float64{2 + 0.05/0.545, 2 + 0.09/0.545, 2 + 0.45/0.545,
		2 + 0.05/0.545, 2 + 0.09/0.545, 2 + 0.45/0.545}
	for i, ord := range orders {
		got, err := ExpectedCost(3, ord, worlds)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want[i]) > 1e-9 {
			t.Errorf("E[C(ω%d)] = %.6f, want %.6f", i+1, got, want[i])
		}
	}
	// Rounded values match the paper's 2.09 / 2.17 / 2.83.
	rounded := func(x float64) float64 { return math.Round(x*100) / 100 }
	if rounded(want[0]) != 2.09 || rounded(want[1]) != 2.17 || rounded(want[2]) != 2.83 {
		t.Errorf("rounded costs %.2f %.2f %.2f, want 2.09 2.17 2.83",
			rounded(want[0]), rounded(want[1]), rounded(want[2]))
	}
}

// TestExample4HeuristicIsBruteForceOptimal: on the Example 4 instance the
// likelihood-descending heuristic attains the brute-force optimum (ω1).
func TestExample4HeuristicIsBruteForceOptimal(t *testing.T) {
	p := triangle(0.9, 0.5, 0.1)
	_, best, err := BruteForceExpectedOptimal(3, p)
	if err != nil {
		t.Fatal(err)
	}
	heuristic, err := ExpectedCostOfOrder(3, ExpectedOrder(p))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(heuristic-best) > 1e-9 {
		t.Errorf("heuristic E[C] = %.6f, brute-force optimum = %.6f", heuristic, best)
	}
}

func TestConsistentWorldsAllMatchProbabilities(t *testing.T) {
	// Two disjoint pairs: all four labelings are consistent; probabilities
	// are the plain products (normalization is a no-op).
	pairs := []Pair{
		{ID: 0, A: 0, B: 1, Likelihood: 0.7},
		{ID: 1, A: 2, B: 3, Likelihood: 0.4},
	}
	worlds, err := ConsistentWorlds(4, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(worlds) != 4 {
		t.Fatalf("got %d worlds, want 4", len(worlds))
	}
	var got float64
	for _, w := range worlds {
		if w.Labels[0] == Matching && w.Labels[1] == NonMatching {
			got = w.P
		}
	}
	if math.Abs(got-0.7*0.6) > 1e-12 {
		t.Errorf("P(M,N) = %v, want 0.42", got)
	}
}

func TestConsistentWorldsRejectsTooMany(t *testing.T) {
	pairs := make([]Pair, MaxWorldPairs+1)
	for i := range pairs {
		pairs[i] = Pair{ID: i, A: int32(i), B: int32(i + 1), Likelihood: 0.5}
	}
	if _, err := ConsistentWorlds(len(pairs)+1, pairs); err == nil {
		t.Fatal("oversized enumeration was accepted")
	}
}

func TestConsistentWorldsDegenerateLikelihoods(t *testing.T) {
	// Likelihood 1 and 0 pin labels; only worlds consistent with the pins
	// survive. Triangle with p1=1 (M), p2=0 (N): the only consistent
	// completion of p3 is N.
	pairs := triangle(1, 0, 0.5)
	worlds, err := ConsistentWorlds(3, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(worlds) != 1 {
		t.Fatalf("got %d worlds, want 1", len(worlds))
	}
	w := worlds[0]
	if w.Labels[0] != Matching || w.Labels[1] != NonMatching || w.Labels[2] != NonMatching {
		t.Errorf("world = %v, want [matching non-matching non-matching]", w.Labels)
	}
	if math.Abs(w.P-1) > 1e-12 {
		t.Errorf("P = %v, want 1", w.P)
	}
}

// TestQuickHeuristicNearBruteForce: the heuristic order is never more than
// a modest factor above the brute-force expected optimum on tiny random
// instances. (It is not always exactly optimal — the problem is NP-hard —
// but Section 6.2 shows it tracks the optimum closely.)
func TestQuickHeuristicNearBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(2)
		var pairs []Pair
		seen := map[[2]int32]bool{}
		for len(pairs) < 5 {
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			if seen[[2]int32{a, b}] {
				continue
			}
			seen[[2]int32{a, b}] = true
			pairs = append(pairs, Pair{ID: len(pairs), A: a, B: b, Likelihood: 0.05 + 0.9*rng.Float64()})
		}
		_, best, err := BruteForceExpectedOptimal(n, pairs)
		if err != nil {
			return false
		}
		h, err := ExpectedCostOfOrder(n, ExpectedOrder(pairs))
		if err != nil {
			return false
		}
		return h >= best-1e-9 && h <= best*1.5+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickExpectedCostBracketsRealizedCost: E[C] lies between the min and
// max realized cost over the consistent worlds.
func TestQuickExpectedCostBracketsRealizedCost(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(3)
		var pairs []Pair
		for len(pairs) < 4 {
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			if a == b {
				continue
			}
			pairs = append(pairs, Pair{ID: len(pairs), A: a, B: b, Likelihood: 0.1 + 0.8*rng.Float64()})
		}
		worlds, err := ConsistentWorlds(n, pairs)
		if err != nil {
			return false
		}
		e, err := ExpectedCost(n, pairs, worlds)
		if err != nil {
			return false
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, w := range worlds {
			res, err := LabelSequentialRun(n, pairs, &WorldOracle{Labels: w.Labels}, Rules{}, RunOpts{})
			if err != nil {
				return false
			}
			c := float64(res.NumCrowdsourced)
			lo, hi = math.Min(lo, c), math.Max(hi, c)
		}
		return e >= lo-1e-9 && e <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
