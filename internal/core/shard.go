package core

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
)

// Transitive deduction never crosses connected components of the candidate
// graph: a path of labeled pairs between two objects stays inside their
// component. The partitioner below makes that structure explicit — it
// splits a candidate set into its connected components — and the
// LabelPartitioned* drivers exploit it: each component ("shard") owns its
// own ClusterGraph and its own slice of the labeling order, preserving the
// paper's single-order semantics inside every component. The sequential
// and one-to-one drivers run k shards on concurrent goroutines; the round
// driver (LabelPartitionedOnPlatformRun) stays on one goroutine and
// publishes every shard's rounds to one platform, whose crowd — a
// RoundPlatform at ParallelStrategy — answers up to k of them at once. The
// merged result is deterministic: labels are scattered back by global pair
// ID, counters are summed, and round sizes are summed per round index (a
// global Algorithm-3 round is exactly the union of the per-component
// rounds, because the optimistic scan's decisions are component-local).

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
	// Objects maps local object ids back to global ones; nil when the
	// shard keeps the global ids (SinglePartition).
	Objects []int32
	// NumObjects is the size of the shard's local object universe.
	NumObjects int
}

// GlobalPair translates a local pair (by local ID) back to its global
// original.
func (s *Shard) GlobalPair(localID int) Pair { return s.Global[localID] }

// Partition is a candidate set split into connected components.
type Partition struct {
	// Shards holds one entry per component, indexed by component id.
	Shards []Shard
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

// BuildPartition validates the candidate set and splits it into connected
// components with a union-find over the pairs' endpoints.
func BuildPartition(numObjects int, order []Pair) (*Partition, error) {
	if err := ValidatePairs(numObjects, order); err != nil {
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
	for _, p := range order {
		ra, rb := find(p.A), find(p.B)
		if ra != rb {
			parent[rb] = ra
		}
	}
	return buildShardsFrom(numObjects, order, find), nil
}

// SinglePartition validates the candidate set and wraps it whole as one
// shard, the unsharded input of a partition-native driver. The shard keeps
// the global object ids and the given order; when the order's IDs are
// already its positions (the default order on Matcher output), its Order
// aliases the given slice instead of copying it.
func SinglePartition(numObjects int, order []Pair) (*Partition, error) {
	if err := ValidatePairs(numObjects, order); err != nil {
		return nil, err
	}
	pt := &Partition{Shards: []Shard{{Order: order, Global: order, NumObjects: numObjects}}}
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
// function under which both endpoints of every pair share a root. The find
// may come from BuildPartition's throwaway forest or from a persistent
// IncrementalPartitioner; shard numbering depends only on order, so the
// two agree exactly.
func buildShardsFrom(numObjects int, order []Pair, find func(int32) int32) *Partition {
	// Number components by first appearance in the order and size them, so
	// the shard slices can be allocated exactly.
	comp := make([]int32, numObjects)
	for i := range comp {
		comp[i] = -1
	}
	var pairCounts []int32
	for _, p := range order {
		r := find(p.A)
		if comp[r] == -1 {
			comp[r] = int32(len(pairCounts))
			pairCounts = append(pairCounts, 0)
		}
		pairCounts[comp[r]]++
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
	// localObj is shared across shards: every object belongs to exactly one
	// component, so one array suffices.
	localObj := make([]int32, numObjects)
	for i := range localObj {
		localObj[i] = -1
	}
	for _, p := range order {
		c := comp[find(p.A)]
		s := &pt.Shards[c]
		for _, o := range [2]int32{p.A, p.B} {
			if localObj[o] == -1 {
				localObj[o] = int32(s.NumObjects)
				s.NumObjects++
				s.Objects = append(s.Objects, o)
			}
		}
		pt.shardOf[p.ID] = int32(c)
		pt.localID[p.ID] = int32(len(s.Order))
		s.Order = append(s.Order, Pair{
			ID:         len(s.Order),
			A:          localObj[p.A],
			B:          localObj[p.B],
			Likelihood: p.Likelihood,
		})
		s.Global = append(s.Global, p)
	}
	return pt
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

// runShards executes fn(shard) for every shard on min(k, len(shards))
// worker goroutines. Larger shards are scheduled first to shorten the
// makespan; scheduling order never affects results (each shard is an
// independent subproblem and the merge is keyed by global pair ID). On a
// hard shard failure the shared context is cancelled so sibling shards
// stop consulting the crowd; the lowest-numbered failure is returned for
// determinism.
func runShards(pt *Partition, k int, ro RunOpts, fn func(s *Shard, ro RunOpts) error) error {
	ctx, cancel := context.WithCancel(ro.context())
	defer cancel()

	byLoad := make([]int, len(pt.Shards))
	for i := range byLoad {
		byLoad[i] = i
	}
	slices.SortStableFunc(byLoad, func(a, b int) int {
		return len(pt.Shards[b].Order) - len(pt.Shards[a].Order)
	})

	// Clamp to [1, len(shards)]: k <= 0 must not silently run nothing and
	// return an all-Unlabeled result with a nil error.
	if k < 1 {
		k = 1
	}
	if k > len(pt.Shards) {
		k = len(pt.Shards)
	}
	var progressMu sync.Mutex
	errs := make([]error, len(pt.Shards))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(byLoad) {
					return
				}
				s := &pt.Shards[byLoad[i]]
				if err := fn(s, s.shardRunOpts(ctx, ro.Progress, &progressMu)); err != nil {
					errs[s.Component] = err
					cancel() // hard failure: stop sibling shards (no-op if already cancelled)
				}
			}
		}()
	}
	wg.Wait()

	// Cancellation of the caller's context is reported once, after every
	// shard has swept its deductions; a shard's own hard error wins over
	// the secondary cancellations it triggered.
	for _, err := range errs {
		if err != nil && err != ctx.Err() {
			return err
		}
	}
	return ro.err()
}

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

// LabelPartitionedSequentialRun runs the sequential labeler independently
// on every component of pt, k components at a time. The oracle must be
// safe for concurrent use when k > 1. The merged result is identical to
// LabelSequentialRun's for any oracle whose answer to a pair does not
// depend on the order questions are asked in (deduction never crosses
// components, so the per-component question sequences are exactly the
// global sequence split by component). Batch sessions build pt with
// BuildPartition; streaming sessions build it once with an
// IncrementalPartitioner and hand it in here.
func LabelPartitionedSequentialRun(pt *Partition, oracle Oracle, k int, ro RunOpts) (*Result, error) {
	res := newResult(pt.NumPairs())
	var mu sync.Mutex
	err := runShards(pt, k, ro, func(s *Shard, sro RunOpts) error {
		r, err := LabelSequentialRun(s.NumObjects, s.Order, shardOracle{oracle, s}, sro)
		if r != nil {
			mu.Lock()
			mergeShardResult(res, s, r)
			mu.Unlock()
		}
		return err
	})
	if err != nil && err != ro.err() {
		return nil, err // hard failure, matching the unsharded driver
	}
	return res, err
}

// LabelPartitionedOneToOneRun runs the one-to-one sequential labeler
// independently on every component of pt, k components at a time. The
// one-to-one constraint is component-local — every pair touching an object
// lives in that object's component — so sharding preserves it exactly.
func LabelPartitionedOneToOneRun(pt *Partition, oracle Oracle, k int, ro RunOpts) (*OneToOneResult, error) {
	res := &OneToOneResult{Result: *newResult(pt.NumPairs())}
	var mu sync.Mutex
	err := runShards(pt, k, ro, func(s *Shard, sro RunOpts) error {
		r, err := LabelSequentialOneToOneRun(s.NumObjects, s.Order, shardOracle{oracle, s}, sro)
		if r != nil {
			mu.Lock()
			mergeShardResult(&res.Result, s, &r.Result)
			res.NumConstraintDeduced += r.NumConstraintDeduced
			mu.Unlock()
		}
		return err
	})
	if err != nil && err != ro.err() {
		return nil, err
	}
	return res, err
}
