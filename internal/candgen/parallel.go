package candgen

import (
	"sync"
	"sync/atomic"

	"crowdjoin/internal/core"
)

// probeChunk is how many probe records a worker claims from the probe
// queue at a time. Small chunks even out the end of the queue, where a
// size-ordered probe list keeps its heaviest records. BenchmarkProbeQueue
// at -cpu 2, two workers, three alternated runs on an idle 2-vCPU VM: at
// 997 records, chunks of 4, 8, 16, 32 and 64 took 4.6–5.4, 4.9–5.1,
// 5.3–5.4, 5.6–5.8 and 5.2–5.7 ms; at 300 records, 0.71–0.77, 0.57–0.62,
// 0.73–0.77, 0.72–0.84 and 0.74–0.80 ms.
const probeChunk = 8

// minForkProbes is the smallest probe list probed on more than one
// worker: below it, starting the second worker and merging its run cost
// more than the worker saves. BenchmarkProbeQueue at -cpu 2 on the same
// machine, two workers against one over three runs: 0.58–0.88x at 32
// records, 0.71–1.00x at 64, 0.65–0.99x at 96, 1.16–1.52x at 128,
// 1.48–1.54x at 192, 1.37–1.65x from 256 to 500 and 1.67–1.86x at 997.
const minForkProbes = 128

// grow returns b resized to n elements, reusing the backing array when
// capacity allows. A fresh slice is zeroed (make's guarantee); a reused
// one is NOT — callers clear whatever they read before writing.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// shardScratch is one probe worker's private state: the candidate
// bookkeeping arrays of the probe kernels plus its output buffer. All
// per-record arrays are indexed by record id and reused across joins via
// the scorer's scratch pool.
type shardScratch struct {
	seen  []int32     // candidate-dedup marks: probe-list index + 1
	ov    []float64   // accumulated prefix overlap; -1 = candidate killed
	rov   []int32     // unweighted resume: rare-region match count
	rxi   []int32     // resume: rank position of the last tracked match in x
	ryj   []int32     // resume: rank position of the last tracked match in y
	fsh   []int32     // cached popcount of the pair's shared frequent row
	cands []int32     // distinct candidates of the current probe record
	pairs []core.Pair // the worker's sorted run, reused across joins
}

// ensure sizes the per-record arrays for n records and resets per-join
// state. seen is the only array that must start zeroed (stale marks would
// wrongly dedup candidates); ov/rov/rxi/ryj/fsh are written at a
// candidate's first sighting before any read, so stale values are inert.
func (sc *shardScratch) ensure(n int) {
	sc.seen = grow(sc.seen, n)
	clear(sc.seen)
	sc.ov = grow(sc.ov, n)
	sc.rov = grow(sc.rov, n)
	sc.rxi = grow(sc.rxi, n)
	sc.ryj = grow(sc.ryj, n)
	sc.fsh = grow(sc.fsh, n)
	sc.pairs = sc.pairs[:0]
}

// joinScratch bundles every reusable buffer of one join: the
// positionalSet/positionalIndex backing arrays, the filtered probe list,
// the CSR fill cursor, and one shardScratch per worker. Scorer.getScratch
// hands these out from a sync.Pool so repeated joins over the same corpus
// allocate little beyond the exact-size result slice.
type joinScratch struct {
	set     positionalSet
	index   positionalIndex
	probe   []int32
	next    []int32
	sideBuf []uint8 // bipartite side table (kept apart: set.side is nil for unipartite joins)
	shards  []shardScratch
}

// getScratch fetches a joinScratch from the scorer's pool (or a fresh
// zero-value one). Concurrent joins each get their own; putScratch returns
// it once the join no longer references the buffers.
func (s *Scorer) getScratch() *joinScratch {
	if js, ok := s.scratch.Get().(*joinScratch); ok {
		return js
	}
	return &joinScratch{}
}

func (s *Scorer) putScratch(js *joinScratch) { s.scratch.Put(js) }

// probeWorkers returns how many workers probe a list of numProbes records
// when procs CPUs may run Go code: one below minForkProbes, otherwise
// procs, but never more workers than the list has chunks to claim.
func probeWorkers(numProbes, procs int) int {
	if numProbes < minForkProbes {
		return 1
	}
	chunks := (numProbes + probeChunk - 1) / probeChunk
	return max(1, min(procs, chunks))
}

// probeQueue probes a list of numProbes records on `workers` goroutines
// over n-record scratch from js (nil: allocate fresh, for tests) and
// returns every pair found, sorted by likelihood in one fresh exact-size
// slice. Each worker claims the next
// probeChunk list positions from one atomic cursor until none are left
// and runs scan(sc, lo, hi) on them with its own scratch, so a load that
// piles up at one end of the list (a unipartite probe only scans
// order-earlier partners) still spreads evenly. scan appends to sc.pairs,
// marking seen with list positions, which are unique across the whole
// list however the chunks are claimed. Each worker then sorts its own
// run, and mergeRuns combines the runs. A pair is found by exactly one
// probe record, so comparePairsByLikelihood orders the pairs totally and
// the result does not depend on the schedule. It never aliases js, which
// the caller may return to the pool at once.
func probeQueue(js *joinScratch, n, numProbes, workers int, scan func(sc *shardScratch, lo, hi int)) []core.Pair {
	if js == nil {
		js = &joinScratch{}
	}
	workers = max(1, min(workers, numProbes))
	for len(js.shards) < workers {
		js.shards = append(js.shards, shardScratch{})
	}
	shards := js.shards[:workers]
	var cursor atomic.Int64
	work := func(sc *shardScratch) {
		sc.ensure(n)
		for {
			hi := int(cursor.Add(probeChunk))
			lo := hi - probeChunk
			if lo >= numProbes {
				break
			}
			scan(sc, lo, min(hi, numProbes))
		}
		SortByLikelihood(sc.pairs)
	}
	if workers == 1 {
		work(&shards[0])
	} else {
		var wg sync.WaitGroup
		for w := range shards {
			wg.Add(1)
			go func(sc *shardScratch) {
				defer wg.Done()
				work(sc)
			}(&shards[w])
		}
		wg.Wait()
	}
	runs := make([][]core.Pair, workers)
	for w := range shards {
		runs[w] = shards[w].pairs
	}
	return mergeRuns(runs)
}

// mergeRuns merges SortByLikelihood-ordered runs into one fresh
// exact-size slice, pairwise: the two halves of the runs merge
// recursively, so n pairs in k runs cost O(n log k) comparisons. Two runs
// merge straight into the result; more runs also allocate the merged
// halves.
func mergeRuns(runs [][]core.Pair) []core.Pair {
	if len(runs) > 2 {
		h := len(runs) / 2
		return mergeByLikelihood(mergeRuns(runs[:h]), mergeRuns(runs[h:]))
	}
	a, b := runs[0], []core.Pair(nil)
	if len(runs) == 2 {
		b = runs[1]
	}
	out := make([]core.Pair, len(a)+len(b))
	mergeInto(out, a, b)
	return out
}

// mergeByLikelihood merges two SortByLikelihood-ordered pair slices into a
// fresh slice (stable: a's pairs win ties, though streamed deltas are
// disjoint by construction).
func mergeByLikelihood(a, b []core.Pair) []core.Pair {
	if len(b) == 0 {
		return a
	}
	out := make([]core.Pair, len(a)+len(b))
	mergeInto(out, a, b)
	return out
}

// mergeInto merges the SortByLikelihood-ordered a and b into dst, which
// holds exactly len(a)+len(b) pairs; a's pairs win ties.
func mergeInto(dst, a, b []core.Pair) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if comparePairsByLikelihood(a[i], b[j]) <= 0 {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// positionalShards is the queue driver for the size-ordered positional
// engine (positional.go).
func positionalShards(ps *positionalSet, ix *positionalIndex, probe []int32, verify verifier, workers int, js *joinScratch) []core.Pair {
	return probeQueue(js, ps.s.numRecords(), len(probe), workers, func(sc *shardScratch, lo, hi int) {
		positionalProbeShard(ps, ix, probe, lo, hi, sc, verify)
	})
}

// probeShards is the queue driver for the plain (position-free) probe
// loop, which the full-token-index path still runs on.
func probeShards(ps *prefixSet, index [][]int32, probe []int32, uni bool, verify verifier, workers int, js *joinScratch) []core.Pair {
	return probeQueue(js, ps.s.numRecords(), len(probe), workers, func(sc *shardScratch, lo, hi int) {
		sc.pairs = probeShard(ps, index, probe, lo, hi, uni, sc.seen, verify, sc.pairs)
	})
}
