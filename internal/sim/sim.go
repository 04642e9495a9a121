// Package sim provides a minimal deterministic discrete-event simulation
// engine: a clock and a time-ordered event queue. The crowd package builds
// its Mechanical-Turk latency model on top of it (worker pickup delays,
// assignment service times, HIT completion).
package sim

import "container/heap"

// Engine is a discrete-event simulator. The zero value is ready to use;
// time starts at 0 and is measured in hours by convention.
type Engine struct {
	now    float64
	queue  eventQueue
	nextID int64
}

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule runs fn delay time units from now. Negative delays are clamped
// to zero (fire at the current time, after already-queued events at the
// same timestamp). Events at equal times fire in scheduling order.
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	heap.Push(&e.queue, &event{at: e.now + delay, seq: e.nextID, fn: fn})
	e.nextID++
}

// Step fires the next event, advancing the clock to its timestamp. It
// reports whether an event was fired.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*event)
	e.now = ev.at
	ev.fn()
	return true
}

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

type event struct {
	at  float64
	seq int64
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) { *q = append(*q, x.(*event)) }

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}
