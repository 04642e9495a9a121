package server

import "sync"

// JobEvent is one entry of a job's event stream, delivered over SSE
// (GET /jobs/{id}/events) as `id: <seq>`, `event: <kind>`, and the JSON
// body in `data:`. Kinds are the library's progress-event names
// (pair-crowdsourced, pair-deduced, pair-guessed, pair-constraint-deduced,
// round-published, conflict-overridden, record-appended,
// components-merged) plus the server lifecycle kinds "state" (State and
// optionally Error set) and "replay" (Size journal answers restored, after
// a resume or a streaming re-run).
type JobEvent struct {
	Seq  int64  `json:"seq"`
	Kind string `json:"kind"`
	// Pair events: the pair's endpoints (object ids) and applied label.
	Pair  *EventPair `json:"pair,omitempty"`
	Label string     `json:"label,omitempty"`
	// round-published / record-appended: ordinal and size.
	Round int `json:"round,omitempty"`
	Size  int `json:"size,omitempty"`
	// components-merged / sharded runs: component ids.
	Component int `json:"component,omitempty"`
	Absorbed  int `json:"absorbed,omitempty"`
	// "state" events.
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
}

// EventPair is the pair payload of a pair event.
type EventPair struct {
	A int32 `json:"a"`
	B int32 `json:"b"`
}

// hubBuffer is how much history a job's event hub retains for late or
// reconnecting subscribers (SSE Last-Event-ID replay), and how far a
// follower may fall behind before its stream is ended.
const hubBuffer = 8192

// hubBatch is the most events one read copies out: it bounds what a
// follower holds (and formats into one write) per batch.
const hubBatch = 256

// eventHub fans a job's events out to SSE subscribers. Events are
// sequence-numbered and kept in a true ring: event seq s lives at
// buf[s%hubBuffer] while s >= next-len(buf), and once the ring is full
// each new event overwrites the oldest in place, so publish costs O(1)
// and never blocks. A subscriber is only a wake-up channel of capacity
// 1; it keeps its own cursor and copies events out with read, so a slow
// follower costs the publisher nothing and is never dropped short of
// losing events to the ring.
type eventHub struct {
	mu     sync.Mutex
	buf    []JobEvent             // guarded by mu; grows to hubBuffer, then wraps
	next   int64                  // guarded by mu; seq of the next event
	subs   map[chan struct{}]bool // guarded by mu; wake-up channels
	closed bool                   // guarded by mu
}

func newEventHub() *eventHub {
	return &eventHub{subs: make(map[chan struct{}]bool)}
}

// publish assigns the event its sequence number, stores it in the ring
// and wakes every subscriber that is not already due to wake.
func (h *eventHub) publish(e JobEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	e.Seq = h.next
	h.next++
	if len(h.buf) < hubBuffer {
		h.buf = append(h.buf, e)
	} else {
		h.buf[e.Seq%hubBuffer] = e
	}
	for wake := range h.subs {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
}

// subscribe registers a follower that has seen every event up to seq
// after, and returns its wake-up channel and the cursor its first read
// starts from. A cursor older than the ring starts at the oldest retained
// event; one at or past next starts at next, so the follower sees every
// event published from now on. On a closed hub (terminal job) the channel
// comes back already closed: the caller reads what is retained and is
// done.
func (h *eventHub) subscribe(after int64) (wake chan struct{}, cursor int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cursor = min(max(after, h.next-int64(len(h.buf))-1), h.next-1)
	wake = make(chan struct{}, 1)
	if h.closed {
		close(wake)
	} else {
		h.subs[wake] = true
	}
	return wake, cursor
}

// read appends to dst the events after cursor, at most hubBatch of them.
// lost reports that the ring has overwritten an event after cursor: the
// follower fell more than hubBuffer behind and must resume from what is
// retained. closed reports whether the hub was closed when the events
// were copied; a closed hub with nothing after cursor is the stream's end.
func (h *eventHub) read(cursor int64, dst []JobEvent) (events []JobEvent, lost, closed bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	from := cursor + 1
	if from < h.next-int64(len(h.buf)) {
		return dst, true, h.closed
	}
	for s := from; s < min(h.next, from+hubBatch); s++ {
		dst = append(dst, h.buf[s%hubBuffer])
	}
	return dst, false, h.closed
}

// unsubscribe detaches a follower (client went away or stream ended).
func (h *eventHub) unsubscribe(wake chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, wake)
}

// close ends the stream: every wake-up channel is closed after all
// published events, and later subscribers still read the retained ring.
func (h *eventHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for wake := range h.subs {
		delete(h.subs, wake)
		close(wake)
	}
}
