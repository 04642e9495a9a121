package core

import (
	"context"
	"sync"
	"sync/atomic"
)

// RoundPlatform is the round adapter: it turns a BatchOracle into the
// Platform that LabelPartitionedOnPlatformRun publishes to, so the parallel
// labeler runs on the one round driver. The crowd answers each published
// shard round through the router of router.go — whole, as one LabelBatch,
// or question by question under BalancedRouter — and NextLabel serves a
// round's answers in the round's order once all of them are in. At k = 1
// the crowd call is made synchronously, on the driver's goroutine, by the
// NextLabel that has nothing left to serve; at k > 1 it is made by k
// worker goroutines, and the oracle must be safe for concurrent use.
//
// Once the run's context is cancelled the adapter starts no LabelBatch.
// Held then waits for the calls under way to return and reports the
// answers the crowd gave — a round cut short contributes every question
// that was answered — so the driver labels them before its sweep. Close
// must be called once the driver has returned.
type RoundPlatform struct {
	ctx      context.Context
	inner    BatchOracle
	pt       *Partition
	k        int
	balanced bool
	unwake   func() bool
	workers  sync.WaitGroup
	// avail counts published pairs not yet served.
	avail atomic.Int64

	mu   sync.Mutex
	wake *sync.Cond
	// queue holds the rounds with questions no call has claimed, live
	// every round not settled yet, both in publish order.
	queue []*round // guarded by mu
	live  []*round // guarded by mu
	// pass is each shard's stride pass and remaining its pairs the crowd
	// has not answered, the stride weight (BalancedRouter).
	pass      []float64 // guarded by mu
	remaining []int     // guarded by mu
	// ready and answers hold the settled answers; head indexes the next
	// one to serve.
	ready   []Pair  // guarded by mu
	answers []Label // guarded by mu
	head    int     // guarded by mu
	err     error   // guarded by mu
	stopped bool    // guarded by mu
}

// NewRoundPlatform returns the round adapter for rounds of pt answered by
// oracle with crowd concurrency k (clamped to at least 1), under
// BalancedRouter when balanced is set. ro.Ctx is the run's context.
func NewRoundPlatform(pt *Partition, oracle BatchOracle, k int, balanced bool, ro RunOpts) *RoundPlatform {
	rp := &RoundPlatform{
		ctx:       ro.context(),
		inner:     oracle,
		pt:        pt,
		k:         max(k, 1),
		balanced:  balanced,
		pass:      make([]float64, len(pt.Shards)),
		remaining: make([]int, len(pt.Shards)),
	}
	rp.wake = sync.NewCond(&rp.mu)
	for i := range pt.Shards {
		rp.remaining[i] = len(pt.Shards[i].Order)
	}
	for w := 0; rp.k > 1 && w < rp.k; w++ {
		rp.workers.Add(1)
		go rp.worker()
	}
	rp.unwake = context.AfterFunc(rp.ctx, func() {
		rp.mu.Lock()
		rp.wake.Broadcast()
		rp.mu.Unlock()
	})
	return rp
}

// Publish implements Platform. The driver publishes one shard's round per
// call.
func (rp *RoundPlatform) Publish(ps []Pair) {
	if len(ps) == 0 {
		return
	}
	shard, _ := rp.pt.Locate(ps[0].ID)
	rd := &round{shard: shard, pairs: ps, answers: make([]Label, len(ps))}
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.avail.Add(int64(len(ps)))
	rp.queue = append(rp.queue, rd)
	rp.live = append(rp.live, rd)
	rp.wake.Broadcast()
}

// NextLabel implements Platform: it serves the settled answers in order,
// waiting for (or, at k = 1, making) the crowd calls that settle the next
// round when none is left. It reports no answer once the run is cancelled
// and nothing is held, or after a misbehaving oracle (see Close).
func (rp *RoundPlatform) NextLabel() (Pair, Label, bool) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	for rp.err == nil && rp.head == len(rp.ready) {
		if rp.k == 1 && rp.workLocked() {
			continue
		}
		if rp.stopped || rp.ctx.Err() != nil || len(rp.live) == 0 {
			break
		}
		rp.wake.Wait()
	}
	if rp.err != nil || rp.head == len(rp.ready) {
		return Pair{}, Unlabeled, false
	}
	p, l := rp.ready[rp.head], rp.answers[rp.head]
	rp.head++
	rp.avail.Add(-1)
	if rp.head == len(rp.ready) {
		rp.ready, rp.answers, rp.head = nil, nil, 0
	}
	return p, l, true
}

// Available implements Platform: published pairs not yet served.
func (rp *RoundPlatform) Available() int { return int(rp.avail.Load()) }

// Held implements Holder. On a cancelled run it first stops the adapter,
// which waits for the crowd calls under way.
func (rp *RoundPlatform) Held() int {
	if rp.ctx.Err() != nil {
		rp.stop()
	}
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return len(rp.ready) - rp.head
}

// Close stops the adapter and returns the error of a batch oracle that
// answered a crowd call with the wrong number of labels. Idempotent.
func (rp *RoundPlatform) Close() error {
	rp.stop()
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.err
}

// stop makes no more crowd calls, waits for the workers to finish the ones
// under way, and settles every round they left short, in publish order.
func (rp *RoundPlatform) stop() {
	rp.mu.Lock()
	if rp.stopped {
		rp.mu.Unlock()
		return
	}
	rp.stopped = true
	rp.wake.Broadcast()
	rp.mu.Unlock()
	rp.unwake()
	rp.workers.Wait()
	rp.mu.Lock()
	defer rp.mu.Unlock()
	for len(rp.live) > 0 {
		rp.settleLocked(rp.live[0], true)
	}
}
