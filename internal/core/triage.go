package core

import "fmt"

// Similarity-banded triage (ROADMAP item "crack the giant component", the
// paper's figs 13–15 cost/quality trade-off): the machine's similarity score
// splits the candidate band into three sub-bands. Pairs whose likelihood
// clears a high-confidence accept band are labeled Matching by the machine,
// pairs below a low-confidence reject band are labeled NonMatching, and only
// the uncertain band in between is crowdsourced. Machine answers flow
// through the standard drivers like crowd answers — the deduction engine
// arbitrates, so the output stays transitively consistent — but they cost no
// crowd questions, and the rejected band's edges thin the candidate graph
// enough to fragment the Paper@0.3 giant component before sharding.

// TriageBands configures similarity-banded triage. The zero value disables
// it (no pair has likelihood > 1, none has likelihood < 0... but see
// Enabled: disabled is represented explicitly as AcceptAbove == 0).
type TriageBands struct {
	// AcceptAbove is the accept band's lower edge: pairs with
	// Likelihood >= AcceptAbove are machine-labeled Matching.
	AcceptAbove float64
	// RejectBelow is the reject band's upper edge: pairs with
	// Likelihood <= RejectBelow are machine-labeled NonMatching.
	RejectBelow float64
}

// Enabled reports whether the bands are active. A zero AcceptAbove would
// accept everything, so it doubles as the disabled marker.
func (b TriageBands) Enabled() bool { return b.AcceptAbove != 0 || b.RejectBelow != 0 }

// Validate checks 0 <= RejectBelow < AcceptAbove <= 1 for enabled bands.
func (b TriageBands) Validate() error {
	if !b.Enabled() {
		return nil
	}
	// Phrased so that NaN, which fails every comparison, fails the check.
	if !(b.RejectBelow >= 0 && b.AcceptAbove <= 1 && b.RejectBelow < b.AcceptAbove) {
		return fmt.Errorf("core: triage bands want 0 <= rejectBelow < acceptAbove <= 1, got accept above %v, reject below %v",
			b.AcceptAbove, b.RejectBelow)
	}
	return nil
}

// Classify returns the machine's answer for a likelihood: Matching in the
// accept band, NonMatching in the reject band, Unlabeled in the uncertain
// band (ask the crowd).
func (b TriageBands) Classify(likelihood float64) Label {
	if !b.Enabled() {
		return Unlabeled
	}
	switch {
	case likelihood >= b.AcceptAbove:
		return Matching
	case likelihood <= b.RejectBelow:
		return NonMatching
	default:
		return Unlabeled
	}
}

// BuildTriagedPartition splits a candidate set into the connected components
// of its *thinned* graph: only non-rejected pairs (uncertain + accepted)
// connect objects. Machine-rejected edges cannot carry useful evidence
// across thinned components — deducing any pair (a, b) needs a matching path
// into both a's and b's clusters, and matching labels only ever land on
// non-rejected pairs, so clusters never leave their thinned component and a
// cross-component rejected edge can never sit between two clusters that
// also contain an uncertain pair's endpoints. Concretely:
//
//   - a rejected pair whose endpoints share a thinned component is assigned
//     to that component (its evidence can matter there: it may deduce, or
//     help deduce, uncertain pairs);
//   - every rejected pair that bridges two thinned components goes to one
//     shared residue shard. All its pairs are machine-answered (they are all
//     in the reject band), its deduction graph holds only non-matching edges
//     between singleton clusters, so it deduces nothing, asks the crowd
//     nothing, and adds no wall-clock to the crowdsourced shards.
//
// Against BuildPartition over the same pairs, labels and crowd cost are
// unchanged for any k; only the deduced-vs-triaged attribution of residue
// pairs can shift (an unsharded run may deduce a residue pair from an
// earlier residue pair's machine answer; the sharded residue shard answers
// each directly — the label is NonMatching either way).
func BuildTriagedPartition(numObjects int, order []Pair, bands TriageBands) (*Partition, error) {
	if err := ValidatePairs(numObjects, order); err != nil {
		return nil, err
	}
	if err := bands.Validate(); err != nil {
		return nil, err
	}
	parent := make([]int32, numObjects)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	rejected := func(p Pair) bool { return bands.Classify(p.Likelihood) == NonMatching }
	for _, p := range order {
		if rejected(p) {
			continue
		}
		ra, rb := find(p.A), find(p.B)
		if ra != rb {
			parent[rb] = ra
		}
	}

	// Number components by first appearance in the order, with the residue
	// pseudo-component claiming its number at its first bridging pair; count
	// pairs per component so the shard slices allocate exactly.
	comp := make([]int32, numObjects)
	for i := range comp {
		comp[i] = -1
	}
	residueComp := int32(-1)
	var pairCounts []int32
	compOf := func(p Pair) int32 {
		if rejected(p) && find(p.A) != find(p.B) {
			if residueComp == -1 {
				residueComp = int32(len(pairCounts))
				pairCounts = append(pairCounts, 0)
			}
			return residueComp
		}
		r := find(p.A)
		if comp[r] == -1 {
			comp[r] = int32(len(pairCounts))
			pairCounts = append(pairCounts, 0)
		}
		return comp[r]
	}
	for _, p := range order {
		pairCounts[compOf(p)]++
	}

	pt := &Partition{
		Shards:  make([]Shard, len(pairCounts)),
		shardOf: make([]int32, len(order)),
		localID: make([]int32, len(order)),
	}
	for c := range pt.Shards {
		pt.Shards[c] = Shard{
			Component: c,
			Order:     make([]Pair, 0, pairCounts[c]),
			Global:    make([]Pair, 0, pairCounts[c]),
		}
	}
	// Unlike BuildPartition's shards, the residue shard shares objects with
	// the thinned components, so it keeps its own local-id table.
	localObj := make([]int32, numObjects)
	var residueObj []int32
	for i := range localObj {
		localObj[i] = -1
	}
	if residueComp != -1 {
		residueObj = make([]int32, numObjects)
		for i := range residueObj {
			residueObj[i] = -1
		}
	}
	for _, p := range order {
		c := compOf(p)
		s := &pt.Shards[c]
		local := localObj
		if c == residueComp {
			local = residueObj
		}
		for _, o := range [2]int32{p.A, p.B} {
			if local[o] == -1 {
				local[o] = int32(s.NumObjects)
				s.NumObjects++
				s.Objects = append(s.Objects, o)
			}
		}
		pt.shardOf[p.ID] = c
		pt.localID[p.ID] = int32(len(s.Order))
		s.Order = append(s.Order, Pair{
			ID:         len(s.Order),
			A:          local[p.A],
			B:          local[p.B],
			Likelihood: p.Likelihood,
		})
		s.Global = append(s.Global, p)
	}
	return pt, nil
}
