package core

import (
	"fmt"
	"math"

	"crowdjoin/internal/clustergraph"
)

// MaxWorldPairs bounds the candidate-set size for exact expected-cost
// computation; enumeration is exponential in the number of pairs.
const MaxWorldPairs = 20

// World is one transitively consistent complete labeling of a candidate
// set, with its probability normalized over all consistent labelings —
// exactly the possibility enumeration of Section 4.2 (Example 4).
type World struct {
	// Labels is indexed by Pair.ID; entries are Matching or NonMatching.
	Labels []Label
	// P is the world's normalized probability.
	P float64
}

// ConsistentWorlds enumerates every complete labeling of pairs that is
// consistent under transitive relations, weighting each by the product of
// per-pair likelihoods and normalizing over the consistent set.
//
// Enumeration is a depth-first walk of the labeling tree using the
// ClusterGraph's snapshot/rollback support — the backtracking realization
// of a Gray-code schedule, where consecutive visited labelings differ by
// the deepest flipped pair only. Each tree edge costs one insert and one
// rollback, so the whole walk is amortized O(2^k) graph operations instead
// of the O(k·2^k) rebuild-per-mask of the naive loop, and a conflicting
// prefix prunes its entire subtree before any deeper work.
func ConsistentWorlds(numObjects int, pairs []Pair) ([]World, error) {
	if err := ValidatePairs(numObjects, pairs); err != nil {
		return nil, err
	}
	k := len(pairs)
	if k > MaxWorldPairs {
		return nil, fmt.Errorf("core: %d pairs exceed MaxWorldPairs=%d for world enumeration", k, MaxWorldPairs)
	}
	var worlds []World
	total := 0.0
	g := clustergraph.New(numObjects)
	// Depth d of the walk decides pair k-1-d, so bit k-1 is outermost and
	// the leaves appear in ascending-mask order, with the non-matching
	// branch (bit 0) first. mask carries the labels of the pairs decided on
	// the current path.
	mask := 0
	var walk func(i int)
	walk = func(i int) {
		if i < 0 {
			// Leaf: a consistent complete labeling. The probability is
			// recomputed in pair order for bitwise-stable products.
			p := 1.0
			labels := make([]Label, k)
			for j, pr := range pairs {
				if mask&(1<<j) != 0 {
					p *= pr.Likelihood
					labels[pr.ID] = Matching
				} else {
					p *= 1 - pr.Likelihood
					labels[pr.ID] = NonMatching
				}
			}
			if p == 0 {
				return
			}
			worlds = append(worlds, World{Labels: labels, P: p})
			total += p
			return
		}
		pr := pairs[i]
		if pr.Likelihood != 1 { // zero-weight branch: prune
			m := g.Snapshot()
			if g.Insert(pr.A, pr.B, false) == nil {
				walk(i - 1)
			}
			g.Rollback(m)
		}
		if pr.Likelihood != 0 {
			m := g.Snapshot()
			if g.Insert(pr.A, pr.B, true) == nil {
				mask |= 1 << i
				walk(i - 1)
				mask &^= 1 << i
			}
			g.Rollback(m)
		}
	}
	walk(k - 1)
	if total == 0 {
		return nil, fmt.Errorf("core: no consistent world has positive probability")
	}
	for i := range worlds {
		worlds[i].P /= total
	}
	return worlds, nil
}

// ExpectedCost returns E[C(ω)] for the order: the expectation, over the
// consistent worlds, of the number of crowdsourced pairs the sequential
// labeler needs when the crowd answers according to each world
// (Definition 3's objective).
func ExpectedCost(numObjects int, order []Pair, worlds []World) (float64, error) {
	if err := ValidatePairs(numObjects, order); err != nil {
		return 0, err
	}
	return expectedCost(clustergraph.New(numObjects), order, worlds, math.Inf(1))
}

// expectedCost sums w.P·C(order, w) over worlds, reusing scratch (Reset
// between worlds) so replays allocate nothing. Accumulation stops early
// once the partial sum reaches bound: the remaining terms are nonnegative,
// so the result can only grow — callers comparing against a best-so-far
// pass it as bound and treat a returned value ≥ bound as "not better".
func expectedCost(scratch *clustergraph.Graph, order []Pair, worlds []World, bound float64) (float64, error) {
	e := 0.0
	oracle := WorldOracle{}
	for _, w := range worlds {
		oracle.Labels = w.Labels
		scratch.Reset()
		c, err := countCrowdsourcedInto(scratch, order, &oracle)
		if err != nil {
			return 0, err
		}
		e += w.P * float64(c)
		if e >= bound {
			return e, nil
		}
	}
	return e, nil
}

// countCrowdsourcedInto is the counting kernel of the Section 3.2
// sequential labeler (LabelSequentialRun under the zero Rules, with no
// one-to-one constraint and no budget): it walks the order through
// scratch — which must be empty or Reset and sized to the object universe
// — and returns how many pairs the oracle had to answer. Unlike
// LabelSequentialRun it records no per-pair results, emits no events and
// performs no input validation, so replay-heavy callers (expected-cost,
// brute-force order search) stay allocation-free.
func countCrowdsourcedInto(scratch *clustergraph.Graph, order []Pair, oracle Oracle) (int, error) {
	count := 0
	for _, p := range order {
		if scratch.Deduce(p.A, p.B) != clustergraph.Undeduced {
			continue
		}
		l := oracle.Label(p)
		if err := checkAnswer(p, l); err != nil {
			return 0, err
		}
		if err := scratch.Insert(p.A, p.B, l == Matching); err != nil {
			return 0, fmt.Errorf("core: sequential labeling: %w", err)
		}
		count++
	}
	return count, nil
}

// ExpectedCostOfOrder enumerates the consistent worlds of order's pairs and
// returns E[C(order)].
func ExpectedCostOfOrder(numObjects int, order []Pair) (float64, error) {
	worlds, err := ConsistentWorlds(numObjects, order)
	if err != nil {
		return 0, err
	}
	return ExpectedCost(numObjects, order, worlds)
}

// MaxBruteForcePairs bounds the candidate-set size for brute-force order
// search (factorial cost).
const MaxBruteForcePairs = 8

// BruteForceExpectedOptimal searches all permutations of pairs and returns
// one minimizing the expected number of crowdsourced pairs together with its
// cost. The problem is NP-hard in general (Vesdapunt et al., VLDB 2014,
// acknowledged by the paper's revision), so this is only feasible for tiny
// inputs; it exists to validate the heuristic order in tests and examples.
func BruteForceExpectedOptimal(numObjects int, pairs []Pair) ([]Pair, float64, error) {
	if len(pairs) > MaxBruteForcePairs {
		return nil, 0, fmt.Errorf("core: %d pairs exceed MaxBruteForcePairs=%d", len(pairs), MaxBruteForcePairs)
	}
	worlds, err := ConsistentWorlds(numObjects, pairs)
	if err != nil {
		return nil, 0, err
	}
	best := math.Inf(1)
	var bestOrder []Pair
	perm := clonePairs(pairs)
	scratch := clustergraph.New(numObjects)
	// Heap's algorithm, iterative.
	c := make([]int, len(perm))
	consider := func() error {
		// best as the early-exit bound: a permutation whose partial sum
		// already reaches the incumbent cannot win.
		e, err := expectedCost(scratch, perm, worlds, best)
		if err != nil {
			return err
		}
		if e < best {
			best = e
			bestOrder = clonePairs(perm)
		}
		return nil
	}
	if err := consider(); err != nil {
		return nil, 0, err
	}
	for i := 0; i < len(perm); {
		if c[i] < i {
			if i%2 == 0 {
				perm[0], perm[i] = perm[i], perm[0]
			} else {
				perm[c[i]], perm[i] = perm[i], perm[c[i]]
			}
			if err := consider(); err != nil {
				return nil, 0, err
			}
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
	return bestOrder, best, nil
}
