package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// refHub is the reference the ring is pinned to: a shifting slice of the
// last hubBuffer events, which replays the retained events with seq >
// after to a new subscriber and then hands it every later event. It keeps
// the whole log and treats its last hubBuffer entries as the retained
// window: the same window, without shifting a slice on every publish.
type refHub struct {
	log    []JobEvent
	closed bool
}

// refSub is one subscriber of the reference: it is owed log[next:].
type refSub struct {
	next int
}

func (r *refHub) publish(e JobEvent) {
	if r.closed {
		return
	}
	e.Seq = int64(len(r.log))
	r.log = append(r.log, e)
}

func (r *refHub) subscribe(after int64) *refSub {
	oldest := max(0, len(r.log)-hubBuffer)
	for i, e := range r.log[oldest:] {
		if e.Seq > after {
			return &refSub{next: oldest + i}
		}
	}
	return &refSub{next: len(r.log)}
}

// read is what a batched read owes s: the next hubBatch events, or lost
// once the next owed event has left the retained window.
func (r *refHub) read(s *refSub) (events []JobEvent, lost, closed bool) {
	if s.next < len(r.log)-hubBuffer {
		return nil, true, r.closed
	}
	n := min(len(r.log)-s.next, hubBatch)
	events = append([]JobEvent(nil), r.log[s.next:s.next+n]...)
	s.next += n
	return events, false, r.closed
}

// hubEvent is the i-th test event; Round carries i so a read can be
// checked against the seq the hub assigned.
func hubEvent(i int) JobEvent {
	return JobEvent{Kind: "pair-deduced", Pair: &EventPair{A: int32(i), B: int32(i + 1)}, Label: "matching", Round: i}
}

// TestHubMatchesShiftingSlice runs a seeded random schedule of publishes
// (past 3*hubBuffer events), subscriptions before, inside, at the end of
// and past the retained window, reads, and a final close (with more
// subscriptions after it), and checks every read of the ring against the
// reference.
func TestHubMatchesShiftingSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	h, ref := newEventHub(), &refHub{}
	type follower struct {
		wake   chan struct{}
		cursor int64
		ref    *refSub
	}
	var live []*follower
	published := 0
	subscribe := func(after int64) {
		wake, cursor := h.subscribe(after)
		live = append(live, &follower{wake: wake, cursor: cursor, ref: ref.subscribe(after)})
	}
	read := func(f *follower) bool {
		got, lost, closed := h.read(f.cursor, nil)
		want, wantLost, wantClosed := ref.read(f.ref)
		if lost != wantLost || closed != wantClosed || !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d publishes, read from cursor %d: got %d events (lost %v, closed %v), want %d (lost %v, closed %v)",
				published, f.cursor, len(got), lost, closed, len(want), wantLost, wantClosed)
		}
		if len(got) > 0 {
			f.cursor = got[len(got)-1].Seq
		}
		if lost || (len(got) == 0 && closed) {
			h.unsubscribe(f.wake)
			return false
		}
		return true
	}
	afters := func() []int64 {
		next := int64(published)
		oldest := max(0, next-hubBuffer)
		return []int64{-1, oldest - 1 - rng.Int63n(oldest+1), oldest + rng.Int63n(next-oldest+1), next + rng.Int63n(3)}
	}
	for published < 3*hubBuffer+500 {
		switch op := rng.Intn(10); {
		case op < 5:
			for n := 1 + rng.Intn(700); n > 0; n-- {
				h.publish(hubEvent(published))
				ref.publish(hubEvent(published))
				published++
			}
		case op < 7:
			as := afters()
			subscribe(as[rng.Intn(len(as))])
		default:
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			for n := 1 + rng.Intn(40); n > 0; n-- {
				if !read(live[i]) {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		}
	}
	for _, after := range afters() {
		subscribe(after)
	}
	h.close()
	ref.closed = true
	for _, after := range afters() {
		subscribe(after)
	}
	for _, f := range live {
		for read(f) {
		}
	}
}

// TestHubSilentSubscriber: a follower that reads nothing is never dropped
// while the ring still holds what it is owed, and reports lost once it
// falls more than hubBuffer behind.
func TestHubSilentSubscriber(t *testing.T) {
	h := newEventHub()
	_, cursor := h.subscribe(-1)
	for i := 0; i < hubBuffer-1; i++ {
		h.publish(hubEvent(i))
	}
	for want := 0; want < hubBuffer-1; {
		events, lost, _ := h.read(cursor, nil)
		if lost || len(events) == 0 {
			t.Fatalf("read %d of %d events, then lost %v with %d more", want, hubBuffer-1, lost, len(events))
		}
		for _, e := range events {
			if e.Seq != int64(want) || e.Round != want {
				t.Fatalf("event %d arrived as seq %d (round %d)", want, e.Seq, e.Round)
			}
			want++
		}
		cursor = events[len(events)-1].Seq
	}
	for i := 0; i < hubBuffer; i++ {
		h.publish(hubEvent(hubBuffer - 1 + i))
	}
	if events, lost, _ := h.read(cursor, nil); lost || len(events) != hubBatch || events[0].Seq != cursor+1 {
		t.Fatalf("exactly hubBuffer behind: lost %v, %d events", lost, len(events))
	}
	h.publish(hubEvent(2*hubBuffer - 1))
	if events, lost, _ := h.read(cursor, nil); !lost || len(events) != 0 {
		t.Fatalf("hubBuffer+1 behind: lost %v, %d events", lost, len(events))
	}
}

// TestHubCloseWakesReader: close wakes a reader blocked on its wake-up
// channel, and a subscribe after close reads the retained events from an
// already-closed channel.
func TestHubCloseWakesReader(t *testing.T) {
	h := newEventHub()
	h.publish(hubEvent(0))
	wake, cursor := h.subscribe(-1)
	if events, _, _ := h.read(cursor, nil); len(events) != 1 {
		t.Fatalf("read %d events, want 1", len(events))
	}
	cursor = 0
	woke := make(chan struct{})
	go func() {
		defer close(woke)
		for range wake {
		}
	}()
	h.close()
	select {
	case <-woke:
	case <-time.After(5 * time.Second):
		t.Fatal("close did not wake a blocked reader")
	}
	if events, lost, closed := h.read(cursor, nil); len(events) != 0 || lost || !closed {
		t.Fatalf("read after close: %d events, lost %v, closed %v", len(events), lost, closed)
	}
	wake2, cursor2 := h.subscribe(-1)
	if _, ok := <-wake2; ok {
		t.Fatal("subscribe after close returned an open channel")
	}
	if events, lost, closed := h.read(cursor2, nil); len(events) != 1 || events[0].Seq != 0 || lost || !closed {
		t.Fatalf("subscribe after close read %d events, lost %v, closed %v", len(events), lost, closed)
	}
}

// TestHubConcurrentFollowers: several goroutines publish (sharded runs
// call onEvent from several) while four followers read the way
// handleEvents does, pausing at random; then the hub closes. Each follower
// must see strictly consecutive seqs until it is done or lost, and one
// that is done must have seen every event.
func TestHubConcurrentFollowers(t *testing.T) {
	const publishers, perPublisher = 4, 5000
	h := newEventHub()
	var pubs sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for i := 0; i < perPublisher; i++ {
				h.publish(JobEvent{Kind: fmt.Sprintf("p%d", p), Round: i})
			}
		}()
	}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			wake, cursor := h.subscribe(int64(r) - 2)
			defer h.unsubscribe(wake)
			var events []JobEvent
			for {
				var lost, closed bool
				events, lost, closed = h.read(cursor, events[:0])
				if lost {
					return
				}
				if len(events) == 0 {
					if closed {
						if cursor != publishers*perPublisher-1 {
							t.Errorf("follower %d done at seq %d of %d", r, cursor, publishers*perPublisher)
						}
						return
					}
					<-wake
					continue
				}
				for _, e := range events {
					if e.Seq != cursor+1 {
						t.Errorf("follower %d: seq %d after %d", r, e.Seq, cursor)
						return
					}
					cursor = e.Seq
				}
				if rng.Intn(4) == 0 {
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				}
			}
		}()
	}
	pubs.Wait()
	h.close()
	readers.Wait()
}
