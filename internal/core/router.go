package core

import (
	"fmt"
	"slices"
)

// Crowd routing inside the round adapter. Every published shard round
// joins one queue, and each crowd call claims work from it: under the
// default largest-first router a call takes a whole round, the largest
// shard's first, with at most k calls in flight — so one giant component
// (Paper@0.3 is 94% of the pairs in a single component) keeps one call
// busy with its big rounds and k buys almost nothing. BalancedRouter keeps
// the same per-component round structure — the driver publishes the same
// rounds, so labels, crowd cost, and per-shard round sizes are identical
// for order-independent crowds — but models the crowd as k concurrent
// workers answering one question at a time: each call claims a single
// question, by stride scheduling across the shards, each shard's share
// weighted by its pairs the crowd has not answered yet. The giant
// component's big rounds spread across all k crowd workers, and a small
// component's one-pair round starts at stride pass 0, so it overlaps the
// giant component's crowd latency instead of queueing behind it.

// round is one published shard round in the adapter.
type round struct {
	shard   int
	pairs   []Pair // global coordinates
	answers []Label
	next    int // questions claimed by crowd calls
	done    int // questions whose call has returned
}

// workLocked claims the next crowd call from the queue and makes it,
// releasing rp.mu for the call itself. It reports false, making no call,
// when nothing is claimable or the adapter is cancelled or stopped.
// Callers hold rp.mu.
func (rp *RoundPlatform) workLocked() bool {
	if len(rp.queue) == 0 || rp.stopped || rp.ctx.Err() != nil {
		return false
	}
	best := 0
	for i, rd := range rp.queue {
		if rp.balanced && rp.pass[rd.shard] < rp.pass[rp.queue[best].shard] ||
			!rp.balanced && len(rp.pt.Shards[rd.shard].Order) > len(rp.pt.Shards[rp.queue[best].shard].Order) {
			best = i
		}
	}
	rd := rp.queue[best]
	lo, hi := rd.next, len(rd.pairs)
	if rp.balanced {
		hi = lo + 1
		rp.pass[rd.shard] += 1 / float64(max(rp.remaining[rd.shard], 1))
	}
	rd.next = hi
	if hi == len(rd.pairs) {
		rp.queue = slices.Delete(rp.queue, best, best+1)
	}
	rp.mu.Unlock()
	ans := rp.inner.LabelBatch(rd.pairs[lo:hi])
	rp.mu.Lock()
	if len(ans) == hi-lo {
		copy(rd.answers[lo:hi], ans)
	} else if rp.err == nil && rp.ctx.Err() == nil {
		// A reply of the wrong length cannot be matched to its questions:
		// the oracle's error, or dropped once the run is cancelled.
		rp.err = fmt.Errorf("core: batch oracle returned %d answers for %d pairs", len(ans), hi-lo)
	}
	rp.remaining[rd.shard] -= hi - lo
	// Once the run is cancelled, stop settles what is left, in publish
	// order.
	if rd.done += hi - lo; rd.done == len(rd.pairs) && rp.ctx.Err() == nil {
		rp.settleLocked(rd, false)
	}
	rp.wake.Broadcast()
	return true
}

// worker is one of the k > 1 crowd workers: it makes crowd calls until
// the adapter stops.
func (rp *RoundPlatform) worker() {
	defer rp.workers.Done()
	rp.mu.Lock()
	defer rp.mu.Unlock()
	for !rp.stopped {
		if !rp.workLocked() {
			rp.wake.Wait()
		}
	}
}

// settleLocked queues a round's answers for NextLabel and drops it from
// the live list, keeping the rest in publish order; a settled round is not
// settled again. With answeredOnly — a round the stop cut short — only
// the questions that got an answer are queued. Callers hold rp.mu.
func (rp *RoundPlatform) settleLocked(rd *round, answeredOnly bool) {
	i := slices.Index(rp.live, rd)
	if i < 0 {
		return
	}
	rp.live = slices.Delete(rp.live, i, i+1)
	if len(rp.ready) == 0 && !answeredOnly {
		// Nothing else queued: serve the round's own slices.
		rp.ready, rp.answers = slices.Clip(rd.pairs), rd.answers
		return
	}
	for j, l := range rd.answers {
		if !answeredOnly || l != Unlabeled {
			rp.ready = append(rp.ready, rd.pairs[j])
			rp.answers = append(rp.answers, l)
		}
	}
}
