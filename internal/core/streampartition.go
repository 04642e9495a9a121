package core

import (
	"fmt"

	"crowdjoin/internal/unionfind"
)

// ComponentMerge records that an appended candidate pair bridged two
// established components of the candidate graph: every object and pair of
// Absorbed now belongs to Winner. Ids are the partitioner's stable ids —
// assigned once, when a component gains its first pair — and the lower id
// always wins, so a component's id never changes while it exists.
type ComponentMerge struct {
	Winner   int
	Absorbed int
}

// IncrementalPartitioner maintains the connected components of a growing
// candidate graph across record appends, so a streaming session can report
// live component merges as records arrive.
//
// AddPairs unions new candidate pairs into a persistent forest and reports
// merges of established components; Grow extends the object universe when
// records arrive. Its stable ids (ComponentOf, ComponentMerge) are
// assigned at first pair and survive until absorbed — they are the ids
// progress events speak. A Run's shards come from BuildPartition, which
// groups the pairs exactly as these components do but numbers shards by
// first appearance in the labeling order.
type IncrementalPartitioner struct {
	uf *unionfind.UF
	// comp[r] is the stable component id of the set rooted at r, or -1
	// while the set has no pair yet (singletons are not components).
	comp []int32
	next int32
}

// NewIncrementalPartitioner returns a partitioner over numObjects
// singleton objects and no pairs.
func NewIncrementalPartitioner(numObjects int) *IncrementalPartitioner {
	return &IncrementalPartitioner{uf: unionfind.New(numObjects), comp: newUnset(numObjects)}
}

// Grow extends the object universe to numObjects, the new objects as
// pairless singletons; a no-op when the universe is already that large.
func (ip *IncrementalPartitioner) Grow(numObjects int) {
	ip.uf.Grow(numObjects)
	for len(ip.comp) < numObjects {
		ip.comp = append(ip.comp, -1)
	}
}

// ComponentOf returns obj's stable component id, or -1 while no added pair
// touches obj's set.
func (ip *IncrementalPartitioner) ComponentOf(obj int32) int {
	return int(ip.comp[ip.uf.Find(obj)])
}

// AddPairs unions the pairs' endpoints into the partition and returns the
// merges of established components this caused, in the order they
// happened. A pair whose endpoints were both pairless starts a fresh
// component (next stable id); a pair joining a pairless set to a component
// extends that component silently; only a pair bridging two components
// produces a ComponentMerge, with the lower stable id surviving. Pair IDs
// and likelihoods are ignored — only endpoints matter here.
func (ip *IncrementalPartitioner) AddPairs(pairs []Pair) ([]ComponentMerge, error) {
	var merges []ComponentMerge
	n := int32(ip.uf.Len())
	for _, p := range pairs {
		if p.A < 0 || p.A >= n || p.B < 0 || p.B >= n {
			return merges, fmt.Errorf("core: pair (%d, %d) outside the %d-object universe", p.A, p.B, n)
		}
		if p.A == p.B {
			return merges, fmt.Errorf("core: self pair (%d, %d)", p.A, p.B)
		}
		ca := ip.comp[ip.uf.Find(p.A)]
		cb := ip.comp[ip.uf.Find(p.B)]
		root, absorbed, merged := ip.uf.Union(p.A, p.B)
		if !merged {
			continue // duplicate edge inside one component
		}
		var id int32
		switch {
		case ca == -1 && cb == -1:
			id = ip.next
			ip.next++
		case ca == -1:
			id = cb
		case cb == -1:
			id = ca
		default:
			id = min(ca, cb)
			merges = append(merges, ComponentMerge{Winner: int(id), Absorbed: int(max(ca, cb))})
		}
		ip.comp[absorbed] = -1
		ip.comp[root] = id
	}
	return merges, nil
}
