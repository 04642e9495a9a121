package crowdjoin_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crowdjoin"
)

// TestRunConcurrentGuard: a Run invoked while another Run is executing on
// the same session gets ErrRunInProgress instead of corrupting the
// journal and engine state; once the first Run returns, the session is
// usable again.
func TestRunConcurrentGuard(t *testing.T) {
	texts := []string{"alpha beta", "alpha beta gamma", "delta epsilon", "delta epsilon zeta"}
	entity := []string{"x", "x", "y", "y"}

	entered := make(chan struct{})
	release := make(chan struct{})
	first := true
	blocking := crowdjoin.OracleFunc(func(p crowdjoin.Pair) crowdjoin.Label {
		if first {
			first = false
			close(entered)
			<-release
		}
		if entity[p.A] == entity[p.B] {
			return crowdjoin.Matching
		}
		return crowdjoin.NonMatching
	})

	j, err := crowdjoin.NewJoin(
		crowdjoin.WithTexts(texts),
		crowdjoin.WithOracle(blocking),
	)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		res *crowdjoin.JoinResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := j.Run(context.Background())
		done <- outcome{res, err}
	}()

	<-entered // the first Run is inside the oracle: definitely executing
	if _, err := j.Run(context.Background()); !errors.Is(err, crowdjoin.ErrRunInProgress) {
		t.Fatalf("concurrent Run: got %v, want ErrRunInProgress", err)
	}
	close(release)

	out := <-done
	if out.err != nil {
		t.Fatalf("first Run: %v", out.err)
	}
	if out.res.NumCrowdsourced+out.res.NumDeduced != len(out.res.Order) {
		t.Fatalf("first Run incomplete: %+v", out.res)
	}

	// The guard released: a sequential re-Run works (and replays from the
	// session's memory cache instead of re-asking).
	res, err := j.Run(context.Background())
	if err != nil {
		t.Fatalf("re-Run after guard release: %v", err)
	}
	if res.Replayed == 0 {
		t.Fatalf("re-Run crowdsourced from scratch: %+v", res)
	}
}

// TestOpenJournalFile: creation fsyncs the parent directory and a reopen
// appends to the same journal — a session resumed through it replays every
// answer instead of re-asking the crowd.
func TestOpenJournalFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "join.journal")
	texts := []string{"alpha beta", "alpha beta gamma", "delta epsilon", "delta epsilon zeta"}
	entity := []int32{0, 0, 1, 1}

	runOnce := func(f *os.File, oracle crowdjoin.Oracle) *crowdjoin.JoinResult {
		t.Helper()
		j, err := crowdjoin.NewJoin(
			crowdjoin.WithTexts(texts),
			crowdjoin.WithOracle(oracle),
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

	f, err := crowdjoin.OpenJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	truth := &crowdjoin.TruthOracle{Entity: entity}
	res1 := runOnce(f, truth)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if res1.NumCrowdsourced == 0 {
		t.Fatal("first run consulted no crowd")
	}

	// Reopen: the file must not be truncated or recreated; the resumed
	// session must replay everything.
	f2, err := crowdjoin.OpenJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	poisoned := crowdjoin.OracleFunc(func(p crowdjoin.Pair) crowdjoin.Label {
		t.Errorf("pair (%d,%d) re-crowdsourced after journal reopen", p.A, p.B)
		return crowdjoin.NonMatching
	})
	res2 := runOnce(f2, poisoned)
	if res2.Replayed != res1.NumCrowdsourced {
		t.Fatalf("replayed %d answers, want %d", res2.Replayed, res1.NumCrowdsourced)
	}
	for i, l := range res2.Labels {
		if l != res1.Labels[i] {
			t.Fatalf("label %d changed across resume: %v -> %v", i, res1.Labels[i], l)
		}
	}
}

// roguePlatform answers one rogue pair before deferring to an honest
// crowd.
type roguePlatform struct {
	crowdjoin.Platform
	rogue crowdjoin.Pair
	sent  bool
}

func (r *roguePlatform) NextLabel() (crowdjoin.Pair, crowdjoin.Label, bool) {
	if !r.sent {
		r.sent = true
		return r.rogue, crowdjoin.Matching, true
	}
	return r.Platform.NextLabel()
}

// TestJoinRejectsRoguePlatform: a Platform answering a pair outside the
// candidate set, or a pair the driver never published, fails Run with an
// error — never a panic, and never a label counted as crowdsourced for a
// question nobody asked — unsharded and sharded alike.
func TestJoinRejectsRoguePlatform(t *testing.T) {
	// A triangle: Algorithm 3 publishes (0,1) and (1,2) and withholds
	// (0,2), which their answers may decide.
	pairs := []crowdjoin.Pair{
		{ID: 0, A: 0, B: 1, Likelihood: 0.9},
		{ID: 1, A: 1, B: 2, Likelihood: 0.8},
		{ID: 2, A: 0, B: 2, Likelihood: 0.7},
	}
	truth := &crowdjoin.TruthOracle{Entity: []int32{0, 0, 0}}
	for _, k := range []int{1, 2} {
		for _, tc := range []struct {
			rogue crowdjoin.Pair
			want  string
		}{
			{crowdjoin.Pair{ID: 99, A: 0, B: 1}, "unknown pair"},
			{pairs[2], "unpublished pair"},
		} {
			j, err := crowdjoin.NewJoin(
				crowdjoin.WithPairs(3, pairs),
				crowdjoin.WithOrder(crowdjoin.OrderAsGiven),
				crowdjoin.WithStrategy(crowdjoin.PlatformStrategy),
				crowdjoin.WithPlatform(&roguePlatform{
					Platform: crowdjoin.NewSimulatedCrowd(truth, crowdjoin.SelectFIFO, nil),
					rogue:    tc.rogue,
				}),
				crowdjoin.WithConcurrency(k),
			)
			if err != nil {
				t.Fatal(err)
			}
			res, err := j.Run(context.Background())
			if err == nil || !strings.Contains(err.Error(), tc.want) || res != nil {
				t.Errorf("k=%d rogue %v: Run = (%+v, %v), want a %q error and no result", k, tc.rogue, res, err, tc.want)
			}
		}
	}
}
