package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"crowdjoin/internal/unionfind"
)

// Transitive deduction never crosses connected components of the candidate
// graph: a path of labeled pairs between two objects stays inside their
// component. The partitioner below makes that structure explicit — it
// splits a candidate set into its connected components — and both labeling
// drivers run on it, an unsharded run on the one shard of a
// SinglePartition: each component ("shard") owns its own ClusterGraph and
// its own slice of the labeling order, preserving the paper's single-order
// semantics inside every component. The sequential driver
// (LabelPartitionedSequentialRun) runs k shards at once, one on the
// calling goroutine; the round driver (LabelPartitionedOnPlatformRun)
// stays on one goroutine and publishes every shard's rounds to one
// platform, whose crowd — a RoundPlatform at ParallelStrategy — answers up
// to k of them at once. The merged result is deterministic: labels are
// scattered back by global pair ID, counters are summed, and round sizes
// are summed per round index (a global Algorithm-3 round is exactly the
// union of the per-component rounds, because the optimistic scan's
// decisions are component-local).

// Shard is one connected component of the candidate graph, re-encoded as a
// self-contained labeling problem: local object ids are dense in
// [0, NumObjects) and local pair IDs equal their position in Order (the
// global order restricted to the component, relative order preserved).
type Shard struct {
	// Component is the component id: components are numbered by first
	// appearance in the global order.
	Component int
	// Order is the shard's labeling order in local coordinates.
	Order []Pair
	// Global[i] is the original global pair behind Order[i].
	Global []Pair
	// NumObjects is the size of the shard's local object universe.
	NumObjects int
}

// Partition is a candidate set split into connected components.
type Partition struct {
	// Shards holds one entry per component, indexed by component id.
	Shards []Shard
	// single marks a SinglePartition: its one shard keeps the global
	// object ids, and its Global is the caller's order.
	single bool
	// shardOf and localID route a global pair ID to its shard and its
	// position there; a SinglePartition whose order's IDs are its
	// positions needs neither.
	shardOf []int32
	localID []int32
}

// Locate returns the shard index and local pair ID of a global pair ID.
func (p *Partition) Locate(globalID int) (shard, local int) {
	if p.localID == nil {
		return 0, globalID
	}
	return int(p.shardOf[globalID]), int(p.localID[globalID])
}

// NumPairs returns the total number of pairs across all shards.
func (p *Partition) NumPairs() int {
	if p.localID == nil {
		return len(p.Shards[0].Order)
	}
	return len(p.localID)
}

// BuildPartition validates the candidate set and splits it into the
// connected components of its graph, with a union-find over the pairs'
// endpoints. Zero bands give the components of the whole graph.
//
// Enabled triage bands split it by the *thinned* graph, where only
// non-rejected pairs (uncertain + accepted) connect objects. Machine-rejected
// edges cannot carry useful evidence across thinned components: deducing a
// pair needs a matching path into both endpoints' clusters, and matching
// labels only land on non-rejected pairs. A rejected pair inside a thinned
// component stays with it (it may help deduce uncertain pairs there); every
// rejected pair bridging two goes to one residue shard, which is all
// machine-answered, deduces nothing and asks the crowd nothing. Labels and
// crowd cost match the unthinned partition for any k. Only the attribution
// of residue pairs can shift: an unsharded run may deduce one from an
// earlier residue answer, or rule it out by the one-to-one constraint,
// where the residue shard answers each directly — NonMatching either way.
func BuildPartition(numObjects int, order []Pair, bands TriageBands) (*Partition, error) {
	if err := ValidatePairs(numObjects, order); err != nil {
		return nil, err
	}
	if err := bands.Validate(); err != nil {
		return nil, err
	}
	uf := unionfind.New(numObjects)
	for _, p := range order {
		if bands.Classify(p.Likelihood) != NonMatching { // a rejected edge connects nothing
			uf.Union(p.A, p.B)
		}
	}
	return buildShardsFrom(numObjects, order, uf.Find), nil
}

// SinglePartition validates the candidate set and wraps it whole as one
// shard, the unsharded input of the labeling drivers. The shard keeps the
// global object ids and the given order; when the order's IDs are already
// its positions (the default order on Matcher output), its Order aliases
// the given slice instead of copying it.
func SinglePartition(numObjects int, order []Pair) (*Partition, error) {
	if err := ValidatePairs(numObjects, order); err != nil {
		return nil, err
	}
	pt := &Partition{Shards: []Shard{{Order: order, Global: order, NumObjects: numObjects}}, single: true}
	for pos, p := range order {
		if p.ID != pos {
			pt.shardOf, pt.localID = make([]int32, len(order)), make([]int32, len(order))
			local := make([]Pair, len(order))
			for pos, p := range order {
				pt.localID[p.ID] = int32(pos)
				p.ID = pos
				local[pos] = p
			}
			pt.Shards[0].Order = local
			break
		}
	}
	return pt, nil
}

// buildShardsFrom re-encodes order as per-component shards, given a find
// function over the components' forest; shard numbering depends only on
// order. A pair whose endpoints have different roots (a rejected pair
// bridging two thinned components) goes to the residue shard.
func buildShardsFrom(numObjects int, order []Pair, find func(int32) int32) *Partition {
	pt := &Partition{shardOf: make([]int32, len(order)), localID: make([]int32, len(order))}
	// Number components by first appearance in the order and size them, so
	// the shard slices can be allocated exactly.
	comp := newUnset(numObjects)
	residue := int32(-1)
	var pairCounts []int32
	for _, p := range order {
		// c points at the shard number of p's component, or at the
		// residue's when p bridges two components.
		c := &residue
		if r := find(p.A); r == find(p.B) {
			c = &comp[r]
		}
		if *c == -1 {
			*c = int32(len(pairCounts))
			pairCounts = append(pairCounts, 0)
		}
		pt.shardOf[p.ID] = *c
		pairCounts[*c]++
	}

	pt.Shards = make([]Shard, len(pairCounts))
	for c := range pt.Shards {
		pt.Shards[c] = Shard{
			Component: c,
			Order:     make([]Pair, 0, pairCounts[c]),
			Global:    make([]Pair, 0, pairCounts[c]),
		}
	}
	// localObj is shared across the components: every object belongs to
	// exactly one. The residue shard shares objects with them, so it keeps
	// its own local-id table.
	localObj := newUnset(numObjects)
	var residueObj []int32
	if residue != -1 {
		residueObj = newUnset(numObjects)
	}
	for _, p := range order {
		c := pt.shardOf[p.ID]
		s := &pt.Shards[c]
		local := localObj
		if c == residue {
			local = residueObj
		}
		for _, o := range [2]int32{p.A, p.B} {
			if local[o] == -1 {
				local[o] = int32(s.NumObjects)
				s.NumObjects++
			}
		}
		pt.localID[p.ID] = int32(len(s.Order))
		s.Order = append(s.Order, Pair{
			ID:         len(s.Order),
			A:          local[p.A],
			B:          local[p.B],
			Likelihood: p.Likelihood,
		})
		s.Global = append(s.Global, p)
	}
	return pt
}

// newUnset returns n int32 entries, each -1 (unset).
func newUnset(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = -1
	}
	return ids
}

// shardRunOpts builds the per-shard RunOpts: same context, progress events
// translated back to global pairs, stamped with the component id, and
// serialized through mu (shards run on concurrent goroutines, the
// subscriber is one callback).
func (s *Shard) shardRunOpts(ctx context.Context, progress func(Event), mu *sync.Mutex) RunOpts {
	ro := RunOpts{Ctx: ctx}
	if progress != nil {
		ro.Progress = func(e Event) {
			if e.Kind != EventRoundPublished {
				e.Pair = s.Global[e.Pair.ID]
			}
			e.Component = s.Component
			mu.Lock()
			progress(e)
			mu.Unlock()
		}
	}
	return ro
}

// shardOracle presents the crowd with global pairs: the shard drivers work
// in local coordinates, but questions, journals, and answers must speak
// global object ids.
type shardOracle struct {
	inner Oracle
	s     *Shard
}

func (o shardOracle) Label(p Pair) Label { return o.inner.Label(o.s.Global[p.ID]) }

// mergeShardResult scatters a shard's local result into the global one.
func mergeShardResult(dst *Result, s *Shard, r *Result) {
	for localID, l := range r.Labels {
		gid := s.Global[localID].ID
		dst.Labels[gid] = l
		dst.Crowdsourced[gid] = r.Crowdsourced[localID]
	}
	dst.NumCrowdsourced += r.NumCrowdsourced
	dst.NumDeduced += r.NumDeduced
}

var errSiblingFailed = errors.New("core: a sibling shard failed")

// shardContext is the caller's context, whose Err also reports
// errSiblingFailed once a shard has failed hard, so that the sibling
// shards sweep. Unlike a context.WithCancel child it takes no mutex per
// pair and reads the caller's cancellation as soon as an oracle can.
type shardContext struct {
	context.Context
	failed *atomic.Bool
}

// Err implements context.Context.
func (c shardContext) Err() error {
	if err := c.Context.Err(); err != nil {
		return err
	}
	if c.failed.Load() {
		return errSiblingFailed
	}
	return nil
}

// LabelPartitionedSequentialRun runs the sequential labeler under rules on
// every component of pt (built, and so validated, by SinglePartition,
// BuildPartition or an IncrementalPartitioner), on min(k, components)
// workers, one of them the calling goroutine, largest shards first. The
// oracle must be safe for concurrent use when k > 1. A hard shard failure
// stops the sibling shards, and the lowest-numbered failure is returned.
// A budget caps the whole session, so it is refused on more than one shard.
//
// The merged result is identical to LabelSequentialRun's for any oracle
// whose answer to a pair does not depend on the order questions are asked
// in: neither deduction nor the one-to-one constraint crosses components.
// The exception is a triaged partition's residue shard, which shares its
// objects with the components: a bridging rejected pair that the
// unsharded run rules out by the constraint is asked of the oracle there,
// and the triage layer answers it NonMatching.
func LabelPartitionedSequentialRun(pt *Partition, oracle Oracle, rules Rules, k int, ro RunOpts) (*SequentialResult, error) {
	if err := rules.validate(); err != nil {
		return nil, err
	}
	if rules.Budget != nil && len(pt.Shards) > 1 {
		return nil, fmt.Errorf("core: a budget cannot be split across %d shards", len(pt.Shards))
	}
	if pt.single { // the caller's order, whole: nothing to translate or merge
		s := &pt.Shards[0]
		return labelSequential(s.NumObjects, s.Global, oracle, rules, ro)
	}
	var failed atomic.Bool
	ctx := shardContext{Context: ro.context(), failed: &failed}

	byLoad := make([]int, len(pt.Shards))
	for i := range byLoad {
		byLoad[i] = i
	}
	slices.SortStableFunc(byLoad, func(a, b int) int {
		return len(pt.Shards[b].Order) - len(pt.Shards[a].Order)
	})
	// Clamp to [1, len(shards)]: k <= 0 must not silently run nothing and
	// return an all-Unlabeled result with a nil error.
	k = min(max(k, 1), len(pt.Shards))

	res := newSequentialResult(pt.NumPairs(), rules)
	var mu sync.Mutex // guards res and serializes progress events
	errs := make([]error, len(pt.Shards))
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(byLoad) {
				return
			}
			s := &pt.Shards[byLoad[i]]
			r, err := labelSequential(s.NumObjects, s.Order, shardOracle{oracle, s}, rules, s.shardRunOpts(ctx, ro.Progress, &mu))
			if r != nil {
				mu.Lock()
				mergeShardResult(&res.Result, s, &r.Result)
				for localID, g := range r.Guessed {
					res.Guessed[s.Global[localID].ID] = g
				}
				res.NumGuessed += r.NumGuessed
				res.NumConstraintDeduced += r.NumConstraintDeduced
				mu.Unlock()
			}
			if err != nil && err != errSiblingFailed && err != ro.err() {
				errs[s.Component] = err
				failed.Store(true) // hard failure: stop sibling shards
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < k; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	// Cancellation of the caller's context is reported once, after every
	// shard has swept its deductions; a shard's own hard error wins over
	// the secondary cancellations it triggered.
	for _, err := range errs {
		if err != nil {
			return nil, err // hard failure, matching the unsharded driver
		}
	}
	return res, ro.err()
}
