package server

import (
	"context"
	"sync"
	"time"

	"crowdjoin"
)

// scheduler multiplexes every job's HIT rounds onto one crowd: a fixed pool
// of worker goroutines (the server's simulated crowd capacity) answers
// questions drawn round-robin across jobs, one question per turn, so a job
// publishing thousand-pair rounds cannot starve a job publishing ten-pair
// rounds. It generalizes the per-component interleaving of
// core.LabelPartitionedOnPlatformRun one level up: there, components of one
// job share one platform; here, jobs share the worker pool, and each job
// sees the usual pull-based Platform through its own jobPlatform view.
type scheduler struct {
	latency time.Duration

	mu   sync.Mutex
	cond *sync.Cond // signals workers: ring non-empty or closed
	// ring holds the jobs that currently have undispatched questions, in
	// round-robin order; a worker pops one question from the front job and
	// rotates it to the back.
	ring   []*jobPlatform // guarded by mu
	closed bool           // guarded by mu
	asked  int            // guarded by mu; questions dispatched to workers, lifetime

	wg sync.WaitGroup
}

func newScheduler(workers int, latency time.Duration) *scheduler {
	s := &scheduler{latency: latency}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// enqueue adds a job's newly published pairs to its dispatch queue and puts
// the job on the ring if it was idle. Reports false if the scheduler has
// shut down (the pairs are dropped; the job's context is already cancelled
// by then).
func (s *scheduler) enqueue(jp *jobPlatform, ps []crowdjoin.Pair) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if len(jp.queue) == 0 {
		s.ring = append(s.ring, jp)
	}
	jp.queue = append(jp.queue, ps...)
	s.cond.Broadcast()
	return true
}

// worker answers one question at a time: claim the front job's next
// question, number it in the job's dispatch order, rotate the job, simulate
// crowd latency, answer from the job's oracle, deliver to the job's inbox.
func (s *scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && len(s.ring) == 0 {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		jp := s.ring[0]
		q := jp.queue[0]
		jp.queue = jp.queue[1:]
		seq := jp.taken
		jp.taken++
		copy(s.ring, s.ring[1:])
		if len(jp.queue) > 0 {
			s.ring[len(s.ring)-1] = jp
		} else {
			s.ring = s.ring[:len(s.ring)-1]
			jp.queue = nil // release the drained backing array
		}
		s.asked++
		s.mu.Unlock()

		if s.latency > 0 {
			time.Sleep(s.latency)
		}
		jp.deliver(seq, q, jp.oracle.Label(q))
	}
}

// close stops the workers after their in-flight questions are delivered and
// drops everything still queued. Callers cancel the job contexts first, so
// every driver blocked in NextLabel has already been woken.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// jobPlatform is one job's view of the shared crowd: a crowdjoin.Platform
// whose Publish feeds the scheduler (after tenant accounting) and whose
// NextLabel blocks on the job's private inbox. The labeling driver is the
// only Publish/NextLabel/Available caller (platform drivers are
// single-threaded pullers); scheduler workers deliver answers concurrently.
// NextLabel hands answers over in the order workers took the questions, so
// a job's answer sequence, and with instant decisions its question count,
// does not depend on which worker finishes first.
//
// It sits *inside* the session's journal wrapper: replayed answers are
// served by the journal layer and never reach Publish, so resumed jobs
// spend no budget, consume no rate tokens, and put nothing on the crowd.
type jobPlatform struct {
	sched  *scheduler
	oracle crowdjoin.Oracle // the job's crowd (truth table, possibly wrapped)
	// reserve charges the job's tenant for n questions before they are
	// published, blocking on the rate limiter; a non-nil error (budget
	// exhausted, context cancelled) suppresses the publish.
	reserve func(n int) error
	// cancel cancels the job's context with the given cause. Publish calls
	// it *before* suppressing a publish, so the driver's next ro.err()
	// check deterministically sees the cancellation and returns the partial
	// result instead of diagnosing a drained platform.
	cancel context.CancelCauseFunc

	// queue is the job's undispatched questions; guarded by sched.mu.
	queue []crowdjoin.Pair
	// taken numbers the job's questions as workers take them; guarded by
	// sched.mu.
	taken int

	mu        sync.Mutex
	inboxCond *sync.Cond
	// inbox[k] is the answer to question handed+k in dispatch order, once
	// delivered; handed counts the answers NextLabel has returned.
	inbox       []answered // guarded by mu
	handed      int        // guarded by mu
	outstanding int        // guarded by mu; published − handed to the driver
	woken       bool       // guarded by mu; job context cancelled: NextLabel must not block
}

type answered struct {
	p         crowdjoin.Pair
	l         crowdjoin.Label
	delivered bool
}

// newJobPlatform wires a job's platform view to the scheduler. ctx is the
// job's context: its cancellation wakes a NextLabel blocked on an inbox
// that will never fill (the question was dropped, or the server is
// shutting down).
func newJobPlatform(ctx context.Context, sched *scheduler, oracle crowdjoin.Oracle, reserve func(n int) error, cancel context.CancelCauseFunc) *jobPlatform {
	jp := &jobPlatform{sched: sched, oracle: oracle, reserve: reserve, cancel: cancel}
	jp.inboxCond = sync.NewCond(&jp.mu)
	context.AfterFunc(ctx, func() {
		jp.mu.Lock()
		jp.woken = true
		jp.inboxCond.Broadcast()
		jp.mu.Unlock()
	})
	return jp
}

// Publish implements crowdjoin.Platform.
func (jp *jobPlatform) Publish(ps []crowdjoin.Pair) {
	if len(ps) == 0 {
		return
	}
	if err := jp.reserve(len(ps)); err != nil {
		jp.cancel(err)
		return
	}
	jp.mu.Lock()
	jp.outstanding += len(ps)
	jp.mu.Unlock()
	if !jp.sched.enqueue(jp, ps) {
		jp.mu.Lock()
		jp.outstanding -= len(ps)
		jp.mu.Unlock()
	}
}

// deliver hands the answer to the job's question number seq (in dispatch
// order) back to the job's driver.
func (jp *jobPlatform) deliver(seq int, p crowdjoin.Pair, l crowdjoin.Label) {
	jp.mu.Lock()
	k := seq - jp.handed
	for len(jp.inbox) <= k {
		jp.inbox = append(jp.inbox, answered{})
	}
	jp.inbox[k] = answered{p, l, true}
	if k == 0 {
		jp.inboxCond.Broadcast()
	}
	jp.mu.Unlock()
}

// NextLabel implements crowdjoin.Platform: it blocks until the answer to
// the next question in dispatch order arrives (unlike SimPlatform's
// non-blocking poll — the driver only calls it with Available() > 0, and
// here "available" work is off with human workers). A cancelled job context
// wakes it; with that answer still missing it then reports no label, which
// the drivers turn into a partial result.
func (jp *jobPlatform) NextLabel() (crowdjoin.Pair, crowdjoin.Label, bool) {
	jp.mu.Lock()
	defer jp.mu.Unlock()
	for (len(jp.inbox) == 0 || !jp.inbox[0].delivered) && !jp.woken {
		jp.inboxCond.Wait()
	}
	if len(jp.inbox) == 0 || !jp.inbox[0].delivered {
		return crowdjoin.Pair{}, crowdjoin.Unlabeled, false
	}
	a := jp.inbox[0]
	jp.inbox = jp.inbox[1:]
	if len(jp.inbox) == 0 {
		jp.inbox = nil
	}
	jp.handed++
	jp.outstanding--
	return a.p, a.l, true
}

// Available implements crowdjoin.Platform: published questions whose
// answers the driver has not yet consumed.
func (jp *jobPlatform) Available() int {
	jp.mu.Lock()
	defer jp.mu.Unlock()
	return jp.outstanding
}
