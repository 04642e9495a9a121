package crowdjoin

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

// stubPlatform is an inner Platform that never has work — every pair the
// journalPlatform forwards to it is a test failure.
type stubPlatform struct {
	t         *testing.T
	published int
}

func (s *stubPlatform) Publish(ps []Pair) {
	s.published += len(ps)
	s.t.Errorf("journaled pair forwarded to the real platform: %v", ps)
}
func (s *stubPlatform) NextLabel() (Pair, Label, bool) { return Pair{}, Unlabeled, false }
func (s *stubPlatform) Available() int                 { return 0 }

// TestJournalPlatformCompactsOnDrain: served replay entries must be
// released as the session publishes and drains — the ready FIFO never
// accumulates the whole session's replay volume, and the consumed prefix
// never stays pinned behind the head index.
func TestJournalPlatformCompactsOnDrain(t *testing.T) {
	const rounds, perRound, numObjects = 64, 8, 1024
	var journal strings.Builder
	journal.WriteString(journalHeader + "\n")
	fmt.Fprintf(&journal, "objects %d\n", numObjects)
	var published [][]Pair
	id := 0
	for r := 0; r < rounds; r++ {
		var round []Pair
		for i := 0; i < perRound; i++ {
			a, b := int32(2*id), int32(2*id+1)
			fmt.Fprintf(&journal, "m %d %d\n", a, b)
			round = append(round, Pair{ID: id, A: a, B: b})
			id++
		}
		published = append(published, round)
	}
	rw := struct {
		io.Reader
		io.Writer
	}{strings.NewReader(journal.String()), &bytes.Buffer{}}
	jrn, err := openJournal(rw, numObjects, nil)
	if err != nil {
		t.Fatal(err)
	}
	jp := &journalPlatform{knownAnswers: knownAnswers{jrn: jrn}, inner: &stubPlatform{t: t}}
	for r, round := range published {
		jp.Publish(round)
		if jp.replays.head != 0 {
			t.Fatalf("round %d: head = %d after Publish, want 0 (consumed prefix pinned)", r, jp.replays.head)
		}
		if len(jp.replays.pairs) > 2*perRound {
			t.Fatalf("round %d: replays hold %d entries after Publish, want ≤ %d (FIFO grows for the whole session)",
				r, len(jp.replays.pairs), 2*perRound)
		}
		// Leave one answer buffered on even rounds and catch it up on odd
		// ones — crossing a Publish with a non-empty FIFO exercises the
		// compaction path.
		drain := len(round)
		if r%2 == 0 {
			drain--
		} else {
			drain++
		}
		for i := 0; i < drain; i++ {
			if _, _, ok := jp.NextLabel(); !ok {
				t.Fatalf("round %d: replay FIFO dry after %d of %d", r, i, drain)
			}
		}
	}
	for jp.replays.len() > 0 {
		jp.NextLabel()
	}
	if len(jp.replays.pairs) != 0 || jp.replays.head != 0 {
		t.Fatalf("after full drain: len(replays)=%d head=%d, want 0/0", len(jp.replays.pairs), jp.replays.head)
	}
	if got := jrn.replayed.Load(); got != rounds*perRound {
		t.Fatalf("replayed %d answers, want %d", got, rounds*perRound)
	}
}

// TestJournalRecordConcurrent hammers journalState.record from many
// goroutines sharing one journal — the WithConcurrency shard setup. The
// narrowed critical section (format under mu, write via the pending-buffer
// flusher) must still produce a parseable journal: header first, objects
// fingerprint present, every entry intact on its own line, no interleaved
// or torn writes.
func TestJournalRecordConcurrent(t *testing.T) {
	const workers = 8
	const perWorker = 200
	numObjects := 2 * workers * perWorker
	var buf bytes.Buffer
	jrn, err := openJournal(&buf, numObjects, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := w*perWorker + i
				l := Matching
				if id%3 == 0 {
					l = NonMatching
				}
				jrn.record(Pair{A: int32(2 * id), B: int32(2*id + 1)}, l)
			}
		}(w)
	}
	wg.Wait()
	content := buf.String()
	if !strings.HasPrefix(content, journalHeader+"\n") {
		t.Fatalf("journal does not start with the header:\n%.120s", content)
	}
	if !strings.Contains(content, fmt.Sprintf("objects %d\n", numObjects)) {
		t.Fatalf("objects fingerprint missing:\n%.200s", content)
	}
	reopened, err := openJournal(bytes.NewBufferString(content), numObjects, nil)
	if err != nil {
		t.Fatalf("concurrently written journal does not reopen: %v", err)
	}
	if got, want := len(reopened.answers), workers*perWorker; got != want {
		t.Fatalf("reopened journal holds %d answers, want %d", got, want)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			id := w*perWorker + i
			want := Matching
			if id%3 == 0 {
				want = NonMatching
			}
			if got, ok := reopened.answers[pairKey{int32(2 * id), int32(2*id + 1)}]; !ok || got != want {
				t.Fatalf("entry for pair (%d, %d) = (%v, %v), want (%v, true)", 2*id, 2*id+1, got, ok, want)
			}
		}
	}
}
