package crowdjoin_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"crowdjoin"
	"crowdjoin/internal/core"
)

// countingOracle counts how many answers the underlying crowd produced.
// Sharded sessions call it from several goroutines; read asked once the
// session has returned.
type countingOracle struct {
	inner crowdjoin.Oracle
	mu    sync.Mutex
	asked int
}

func (c *countingOracle) Label(p crowdjoin.Pair) crowdjoin.Label {
	c.mu.Lock()
	c.asked++
	c.mu.Unlock()
	return c.inner.Label(p)
}

// failingOracle fails the test on first use — for sessions that must be
// fully served by the journal.
func failingOracle(t *testing.T) crowdjoin.Oracle {
	return crowdjoin.OracleFunc(func(p crowdjoin.Pair) crowdjoin.Label {
		t.Errorf("crowd consulted for already-journaled pair %v", p)
		return crowdjoin.NonMatching
	})
}

// TestJournalRoundTrip: a completed run's journal, replayed into a fresh
// session, must reproduce identical labels and clusters while consulting
// the crowd zero times.
func TestJournalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	numObjects, pairs, entity := randomJoinCase(rng)
	truth := &crowdjoin.TruthOracle{Entity: entity}

	run := func(o crowdjoin.Oracle, jrn io.ReadWriter, s crowdjoin.Strategy) *crowdjoin.JoinResult {
		t.Helper()
		opts := []crowdjoin.JoinOption{
			crowdjoin.WithPairs(numObjects, pairs),
			crowdjoin.WithStrategy(s),
			crowdjoin.WithOracle(o),
		}
		if jrn != nil {
			opts = append(opts, crowdjoin.WithJournal(jrn))
		}
		j, err := crowdjoin.NewJoin(opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, s := range []crowdjoin.Strategy{crowdjoin.SequentialStrategy, crowdjoin.ParallelStrategy} {
		var buf bytes.Buffer
		first := run(truth, &buf, s)
		replayBuf := bytes.NewBufferString(buf.String())
		second := run(failingOracle(t), replayBuf, s)
		if !reflect.DeepEqual(first.Labels, second.Labels) {
			t.Fatalf("%v: replayed labels differ", s)
		}
		if second.Replayed != first.NumCrowdsourced {
			t.Fatalf("%v: replayed %d answers, journal holds %d", s, second.Replayed, first.NumCrowdsourced)
		}
		c1, err1 := first.Clusters()
		c2, err2 := second.Clusters()
		if err1 != nil || err2 != nil || !reflect.DeepEqual(c1, c2) {
			t.Fatalf("%v: replayed clusters differ: %v vs %v (%v, %v)", s, c1, c2, err1, err2)
		}
	}
}

// TestJournalResumeMidJoin: cancel a journaled join partway, resume it with
// the same journal, and the finished session must match the uninterrupted
// run exactly — re-crowdsourcing zero already-journaled pairs.
func TestJournalResumeMidJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	numObjects, pairs, entity := randomJoinCase(rng)
	truth := &crowdjoin.TruthOracle{Entity: entity}

	for _, s := range []crowdjoin.Strategy{crowdjoin.SequentialStrategy, crowdjoin.ParallelStrategy} {
		// Uninterrupted reference.
		jRef, err := crowdjoin.NewJoin(
			crowdjoin.WithPairs(numObjects, pairs),
			crowdjoin.WithStrategy(s),
			crowdjoin.WithOracle(truth),
		)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := jRef.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if ref.NumCrowdsourced < 4 {
			t.Fatalf("%v: case too small (%d crowdsourced)", s, ref.NumCrowdsourced)
		}
		interruptAt := ref.NumCrowdsourced / 2

		// First half: cancel after interruptAt crowd answers.
		var journal bytes.Buffer
		ctx, cancel := context.WithCancel(context.Background())
		j1, err := crowdjoin.NewJoin(
			crowdjoin.WithPairs(numObjects, pairs),
			crowdjoin.WithStrategy(s),
			crowdjoin.WithOracle(cancelAfter(truth, interruptAt, cancel)),
			crowdjoin.WithJournal(&journal),
		)
		if err != nil {
			t.Fatal(err)
		}
		part, err := j1.Run(ctx)
		cancel()
		if !errors.Is(err, context.Canceled) || part == nil || !part.Partial {
			t.Fatalf("%v: interrupt run = (%v, %v)", s, part, err)
		}
		journaled := part.NumCrowdsourced

		// Second half: same journal, counting crowd.
		counter := &countingOracle{inner: truth}
		j2, err := crowdjoin.NewJoin(
			crowdjoin.WithPairs(numObjects, pairs),
			crowdjoin.WithStrategy(s),
			crowdjoin.WithOracle(counter),
			crowdjoin.WithJournal(&journal),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j2.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Replayed != journaled {
			t.Errorf("%v: resumed session replayed %d answers, journal holds %d", s, res.Replayed, journaled)
		}
		if counter.asked != ref.NumCrowdsourced-journaled {
			t.Errorf("%v: crowd asked %d fresh questions, want %d", s, counter.asked, ref.NumCrowdsourced-journaled)
		}
		if !reflect.DeepEqual(res.Labels, ref.Labels) {
			t.Errorf("%v: resumed labels differ from uninterrupted run", s)
		}
		cRes, _ := res.Clusters()
		cRef, _ := ref.Clusters()
		if !reflect.DeepEqual(cRes, cRef) {
			t.Errorf("%v: resumed clusters %v, want %v", s, cRes, cRef)
		}
	}
}

// TestJournalResumePlatform: journal replay short-circuits the platform —
// answers already journaled never reach the real backend.
func TestJournalResumePlatform(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	numObjects, pairs, entity := randomJoinCase(rng)
	truth := &crowdjoin.TruthOracle{Entity: entity}

	run := func(jrn io.ReadWriter, oracle crowdjoin.Oracle, ctx context.Context) (*crowdjoin.JoinResult, *core.SimPlatform, error) {
		pf := core.NewSimPlatform(oracle, core.SelectAscendingLikelihood, nil)
		j, err := crowdjoin.NewJoin(
			crowdjoin.WithPairs(numObjects, pairs),
			crowdjoin.WithStrategy(crowdjoin.PlatformStrategy),
			crowdjoin.WithPlatform(pf),
			crowdjoin.WithInstantDecisions(true),
			crowdjoin.WithJournal(jrn),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Run(ctx)
		return res, pf, err
	}

	// Reference run (no journal) for the final clusters.
	jRef, err := crowdjoin.NewJoin(
		crowdjoin.WithPairs(numObjects, pairs),
		crowdjoin.WithStrategy(crowdjoin.PlatformStrategy),
		crowdjoin.WithPlatform(core.NewSimPlatform(truth, core.SelectAscendingLikelihood, nil)),
		crowdjoin.WithInstantDecisions(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := jRef.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var journal bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	interruptAt := ref.NumCrowdsourced / 2
	part, _, err := run(&journal, cancelAfter(truth, interruptAt, cancel), ctx)
	cancel()
	if !errors.Is(err, context.Canceled) || !part.Partial {
		t.Fatalf("interrupt run = (%+v, %v)", part, err)
	}

	res, pf, err := run(&journal, truth, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed != part.NumCrowdsourced {
		t.Errorf("replayed %d, journal holds %d", res.Replayed, part.NumCrowdsourced)
	}
	if pf.Labeled() != res.NumCrowdsourced-res.Replayed {
		t.Errorf("platform labeled %d pairs, want %d fresh ones", pf.Labeled(), res.NumCrowdsourced-res.Replayed)
	}
	cRes, _ := res.Clusters()
	cRef, _ := ref.Clusters()
	if !reflect.DeepEqual(cRes, cRef) {
		t.Errorf("resumed platform clusters %v, want %v", cRes, cRef)
	}
}

// TestJournalTornTail: a torn final line (crash mid-append) is dropped on
// the next open, voided by the next append, and stays voided across
// further resume cycles on a real file — even when the fragment is a
// numerically torn entry that would parse as a valid (fabricated) answer.
func TestJournalTornTail(t *testing.T) {
	numObjects := 13
	pairs := []crowdjoin.Pair{
		{ID: 0, A: 0, B: 12, Likelihood: 0.9},
		{ID: 1, A: 0, B: 1, Likelihood: 0.8},
		{ID: 2, A: 3, B: 4, Likelihood: 0.7},
	}
	// Truth: (0,12) and (3,4) match, (0,1) does not — so the fabricated
	// "m 0 1" of the torn tail, if ever replayed, is observable.
	truth := crowdjoin.OracleFunc(func(p crowdjoin.Pair) crowdjoin.Label {
		if (p.A == 0 && p.B == 12) || (p.A == 3 && p.B == 4) {
			return crowdjoin.Matching
		}
		return crowdjoin.NonMatching
	})
	path := t.TempDir() + "/j.log"
	// Crash mid-append tore "m 0 12\n" down to "m 0 1" — a fragment that
	// parses as a valid in-range entry with the wrong answer.
	if err := os.WriteFile(path, []byte("crowdjoin-journal v1\nm 3 4\nm 0 1"), 0o644); err != nil {
		t.Fatal(err)
	}

	resume := func(o crowdjoin.Oracle) *crowdjoin.JoinResult {
		t.Helper()
		f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		j, err := crowdjoin.NewJoin(
			crowdjoin.WithPairs(numObjects, pairs),
			crowdjoin.WithOracle(o),
			crowdjoin.WithJournal(f),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	counter := &countingOracle{inner: truth}
	first := resume(counter)
	if first.Replayed != 1 {
		t.Errorf("first resume replayed %d answers, want 1 (torn fragment dropped)", first.Replayed)
	}
	if counter.asked != 2 {
		t.Errorf("first resume asked the crowd %d questions, want 2", counter.asked)
	}

	// Second resume must replay everything — and must NOT see the voided
	// fragment as the fabricated answer m(0,1).
	second := resume(failingOracle(t))
	if second.Replayed != 3 {
		t.Errorf("second resume replayed %d answers, want 3", second.Replayed)
	}
	if second.Labels[1] != crowdjoin.NonMatching {
		t.Errorf("pair (0,1) labeled %v after crash-resume cycles, want non-matching (torn fragment replayed as real?)", second.Labels[1])
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "m 0 1#\n") {
		t.Errorf("torn fragment not voided in place:\n%s", raw)
	}
}

// TestJournalRerunSameJoin: a second Run on the same Join must rewind a
// seekable journal and replay it (not re-crowdsource and re-write the
// header), and must refuse a non-seekable stream it already drained.
func TestJournalRerunSameJoin(t *testing.T) {
	dir := t.TempDir()
	f, err := os.OpenFile(dir+"/j.log", os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	counter := &countingOracle{inner: exampleOracle()}
	j, err := crowdjoin.NewJoin(
		crowdjoin.WithTexts(exampleTexts),
		crowdjoin.WithOracle(counter),
		crowdjoin.WithJournal(f),
	)
	if err != nil {
		t.Fatal(err)
	}
	first, err := j.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	second, err := j.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if counter.asked != first.NumCrowdsourced {
		t.Errorf("re-Run consulted the crowd %d extra times", counter.asked-first.NumCrowdsourced)
	}
	if second.Replayed != first.NumCrowdsourced {
		t.Errorf("re-Run replayed %d answers, want %d", second.Replayed, first.NumCrowdsourced)
	}
	raw, err := os.ReadFile(dir + "/j.log")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), "crowdjoin-journal v2"); n != 1 {
		t.Errorf("journal holds %d headers after re-Run:\n%s", n, raw)
	}

	// Non-seekable stream: the drained buffer must be refused, not
	// silently treated as a fresh journal.
	var buf bytes.Buffer
	j2, err := crowdjoin.NewJoin(
		crowdjoin.WithTexts(exampleTexts),
		crowdjoin.WithOracle(exampleOracle()),
		crowdjoin.WithJournal(&buf),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "already consumed") {
		t.Errorf("re-Run on a drained buffer: err = %v, want refusal", err)
	}
}

// TestJournalReversedEntryReplays: a hand-edited entry written b a (high id
// first) must still replay — lookup keys are canonical.
func TestJournalReversedEntryReplays(t *testing.T) {
	buf := bytes.NewBufferString("crowdjoin-journal v1\nm 1 0\n")
	counter := &countingOracle{inner: exampleOracle()}
	j, err := crowdjoin.NewJoin(
		crowdjoin.WithTexts(exampleTexts),
		crowdjoin.WithOracle(counter),
		crowdjoin.WithJournal(buf),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed != 1 {
		t.Errorf("replayed %d answers, want the reversed (0,1) entry to count", res.Replayed)
	}
}

// TestJournalObjectsLineSelfHeals: when the objects fingerprint was torn
// away by a crashed first append, the next append rewrites it, so a later
// cross-dataset resume is still rejected.
func TestJournalObjectsLineSelfHeals(t *testing.T) {
	path := t.TempDir() + "/j.log"
	// Crash tore the first append mid-'objects' line.
	if err := os.WriteFile(path, []byte("crowdjoin-journal v1\nobjec"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	j, err := crowdjoin.NewJoin(
		crowdjoin.WithTexts(exampleTexts),
		crowdjoin.WithOracle(exampleOracle()),
		crowdjoin.WithJournal(f),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "\nobjects 6\n") {
		t.Fatalf("objects fingerprint not rewritten after torn append:\n%s", raw)
	}

	// The healed fingerprint must reject a resume against a smaller
	// universe even though the entries' ids happen to be in range there.
	f2, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	j2, err := crowdjoin.NewJoin(
		crowdjoin.WithPairs(4, []crowdjoin.Pair{{ID: 0, A: 0, B: 1, Likelihood: 0.9}}),
		crowdjoin.WithOracle(exampleOracle()),
		crowdjoin.WithJournal(f2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "objects") {
		t.Errorf("cross-dataset resume: err = %v, want objects-fingerprint rejection", err)
	}
}

// TestJournalRejectsGarbage: wrong header, malformed entries, and entries
// outside the object universe are configuration errors, not silent
// misreplays.
func TestJournalRejectsGarbage(t *testing.T) {
	cases := []struct {
		name    string
		content string
	}{
		{"wrong header", "some other file\nm 0 1\n"},
		{"malformed entry", "crowdjoin-journal v1\nx 0 1\n"},
		{"non-numeric", "crowdjoin-journal v1\nm zero one\n"},
		{"out of range", "crowdjoin-journal v1\nm 0 99\n"},
		{"self pair", "crowdjoin-journal v1\nm 3 3\n"},
		{"wrong universe size", "crowdjoin-journal v1\nobjects 4\nm 0 1\n"},
		{"conflicting duplicate", "crowdjoin-journal v1\nm 0 1\nn 0 1\n"},
		{"conflicting reversed duplicate", "crowdjoin-journal v1\nm 0 1\nn 1 0\n"},
	}
	for _, tc := range cases {
		j, err := crowdjoin.NewJoin(
			crowdjoin.WithTexts(exampleTexts),
			crowdjoin.WithOracle(exampleOracle()),
			crowdjoin.WithJournal(bytes.NewBufferString(tc.content)),
		)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Run(context.Background()); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestJournalExactDuplicateBenign: a repeated identical entry (say from a
// hand-merged pair of journals) replays normally — only *conflicting*
// duplicates are corruption.
func TestJournalExactDuplicateBenign(t *testing.T) {
	buf := bytes.NewBufferString("crowdjoin-journal v1\nn 0 1\nn 0 1\nn 1 0\n")
	j, err := crowdjoin.NewJoin(
		crowdjoin.WithTexts(exampleTexts),
		crowdjoin.WithOracle(exampleOracle()),
		crowdjoin.WithJournal(buf),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Run(context.Background())
	if err != nil {
		t.Fatalf("exact duplicate entries rejected: %v", err)
	}
	if res.Replayed != 1 {
		t.Errorf("replayed %d answers, want the duplicated (0,1) entry to count once", res.Replayed)
	}
}

// TestJournalConcurrentShards: a WithConcurrency(4) session appends to one
// journal from four shard goroutines. With the narrowed record critical
// section (format under the state lock, writes via the flusher), the
// journal must still come out parseable and complete: a fresh session
// replays every answer without consulting the crowd.
func TestJournalConcurrentShards(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 4; trial++ {
		numObjects, pairs, entity := randomJoinCase(rng)
		truth := &crowdjoin.TruthOracle{Entity: entity}
		var journal bytes.Buffer
		j1, err := crowdjoin.NewJoin(
			crowdjoin.WithPairs(numObjects, pairs),
			crowdjoin.WithStrategy(crowdjoin.ParallelStrategy),
			crowdjoin.WithOracle(truth),
			crowdjoin.WithConcurrency(4),
			crowdjoin.WithJournal(&journal),
		)
		if err != nil {
			t.Fatal(err)
		}
		first, err := j1.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		content := journal.String()
		if !strings.HasPrefix(content, "crowdjoin-journal v2\n") {
			t.Fatalf("trial %d: journal does not start with the header:\n%.120s", trial, content)
		}
		if !strings.HasSuffix(content, "\n") {
			t.Fatalf("trial %d: concurrently written journal ends mid-line:\n%.120s", trial, content)
		}
		j2, err := crowdjoin.NewJoin(
			crowdjoin.WithPairs(numObjects, pairs),
			crowdjoin.WithStrategy(crowdjoin.ParallelStrategy),
			crowdjoin.WithOracle(failingOracle(t)),
			crowdjoin.WithConcurrency(4),
			crowdjoin.WithJournal(bytes.NewBufferString(content)),
		)
		if err != nil {
			t.Fatal(err)
		}
		second, err := j2.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if second.Replayed != first.NumCrowdsourced {
			t.Errorf("trial %d: replayed %d answers, journal holds %d", trial, second.Replayed, first.NumCrowdsourced)
		}
		if !reflect.DeepEqual(first.Labels, second.Labels) {
			t.Errorf("trial %d: replayed labels differ", trial)
		}
	}
}

// brokenWriter reads fine but fails every write.
type brokenWriter struct{ r io.Reader }

func (b *brokenWriter) Read(p []byte) (int, error)  { return b.r.Read(p) }
func (b *brokenWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

// TestJournalWriteFailureCancelsRun: when the journal stops accepting
// appends, the session cancels itself rather than buying unrecorded
// answers, and Run reports the write error alongside the partial result.
func TestJournalWriteFailureCancelsRun(t *testing.T) {
	j, err := crowdjoin.NewJoin(
		crowdjoin.WithTexts(exampleTexts),
		crowdjoin.WithOracle(exampleOracle()),
		crowdjoin.WithJournal(&brokenWriter{r: strings.NewReader("")}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("err = %v, want journal write error", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("res = %+v, want partial result", res)
	}
	// The first answer was bought before the failure was detected; at most
	// one unrecorded answer is tolerable.
	if res.NumCrowdsourced > 1 {
		t.Errorf("session crowdsourced %d pairs after the journal broke", res.NumCrowdsourced)
	}
}

// flakyFile is a journal file whose failAt-th write (1-based) fails once
// without writing anything, as a full disk would fail one append.
type flakyFile struct {
	*os.File
	writes, failAt int
}

func (f *flakyFile) Write(p []byte) (int, error) {
	f.writes++
	if f.writes == f.failAt {
		return 0, errors.New("disk full")
	}
	return f.File.Write(p)
}

// TestJournalRerunAfterWriteFailure: a session keeps its parsed journal
// across Runs only while every append succeeds. After a one-shot write
// failure the first Run returns its partial result with the error; the
// next Run re-reads the file, so the answer that was bought but never
// written is asked again (a kept state, or a streaming session's slot
// table resolved against it, would replay it from memory and leave it out
// of the file). The file then holds every pair exactly once, and a fresh
// session replays all of it. Both a batch and a streaming session run.
func TestJournalRerunAfterWriteFailure(t *testing.T) {
	const failAt = 2
	for _, streaming := range []bool{false, true} {
		session := func(crowd crowdjoin.Oracle, journal io.ReadWriter) *crowdjoin.Join {
			t.Helper()
			opts := []crowdjoin.JoinOption{crowdjoin.WithTexts(exampleTexts), crowdjoin.WithOracle(crowd)}
			if streaming {
				opts[0] = crowdjoin.WithTexts(exampleTexts[:3])
			}
			if journal != nil {
				opts = append(opts, crowdjoin.WithJournal(journal))
			}
			j, err := crowdjoin.NewJoin(opts...)
			if err != nil {
				t.Fatal(err)
			}
			if streaming {
				if _, err := j.Append(exampleTexts[3:]...); err != nil {
					t.Fatal(err)
				}
			}
			return j
		}
		want, err := session(exampleOracle(), nil).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want.NumCrowdsourced <= failAt {
			t.Fatalf("streaming=%v: example asks %d questions; the test needs more than %d", streaming, want.NumCrowdsourced, failAt)
		}

		path := t.TempDir() + "/j.log"
		f, err := crowdjoin.OpenJournalFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		asked := map[[2]int32]int{}
		crowd := crowdjoin.OracleFunc(func(p crowdjoin.Pair) crowdjoin.Label {
			asked[[2]int32{min(p.A, p.B), max(p.A, p.B)}]++
			return exampleOracle().Label(p)
		})
		j := session(crowd, &flakyFile{File: f, failAt: failAt})
		first, err := j.Run(context.Background())
		if err == nil || !strings.Contains(err.Error(), "disk full") {
			t.Fatalf("streaming=%v: first Run: err = %v, want the journal write error", streaming, err)
		}
		if first == nil || !first.Partial {
			t.Fatalf("streaming=%v: first Run: res = %+v, want a partial result", streaming, first)
		}
		second, err := j.Run(context.Background())
		if err != nil {
			t.Fatalf("streaming=%v: second Run: %v", streaming, err)
		}
		if second.Replayed != failAt-1 {
			t.Errorf("streaming=%v: second Run replayed %d answers, want the %d written before the failure", streaming, second.Replayed, failAt-1)
		}
		if !reflect.DeepEqual(second.Labels, want.Labels) {
			t.Errorf("streaming=%v: second Run labels %v, want %v", streaming, second.Labels, want.Labels)
		}
		twice := 0
		for k, n := range asked {
			if n > 1 {
				twice++
				if n != 2 {
					t.Errorf("streaming=%v: pair %v asked %d times", streaming, k, n)
				}
			}
		}
		if twice != 1 || len(asked) != want.NumCrowdsourced {
			t.Errorf("streaming=%v: crowd asked %d distinct pairs, %d of them twice; want %d pairs, the unwritten one twice",
				streaming, len(asked), twice, want.NumCrowdsourced)
		}

		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		entries := map[string]int{}
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "m ") || strings.HasPrefix(line, "n ") {
				entries[line[2:]]++
			}
		}
		for pair, n := range entries {
			if n != 1 {
				t.Errorf("streaming=%v: journal holds pair %s %d times", streaming, pair, n)
			}
		}
		if len(entries) != want.NumCrowdsourced {
			t.Errorf("streaming=%v: journal holds %d pairs, want %d:\n%s", streaming, len(entries), want.NumCrowdsourced, raw)
		}

		g, err := crowdjoin.OpenJournalFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		res, err := session(failingOracle(t), g).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Replayed != want.NumCrowdsourced || !reflect.DeepEqual(res.Labels, want.Labels) {
			t.Errorf("streaming=%v: fresh session replayed %d answers (want %d), labels %v (want %v)",
				streaming, res.Replayed, want.NumCrowdsourced, res.Labels, want.Labels)
		}
	}
}
