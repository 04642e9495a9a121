package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdjoin"
)

// corpus builds n records over synthetic entities: ~3 variants per entity
// share brand+model tokens (candidates above the 0.3 threshold), and
// entities under one brand share brand+variant tokens, so cross-entity
// candidates exist and the crowd must answer both ways.
func corpus(n int) []Record {
	recs := make([]Record, 0, n)
	for i := 0; len(recs) < n; i++ {
		for j := 0; j < 3 && len(recs) < n; j++ {
			recs = append(recs, Record{
				Text:   fmt.Sprintf("brand%d model%d variant%d", i/3, i, j),
				Entity: fmt.Sprintf("e%d", i),
			})
		}
	}
	return recs
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// doJSON performs one request and decodes the JSON response into out.
func doJSON(t *testing.T, method, url string, body, out any, wantCode int) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s: got %d (%s), want %d", method, url, resp.StatusCode, data, wantCode)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
}

// getResult fetches GET /jobs/{id}/result and checks that the body is
// encoding/json's own encoding of the payload it decodes to, the bytes
// json.Encoder with SetEscapeHTML(false) writes (trailing newline
// included).
func getResult(t *testing.T, base, id string) (ResultPayload, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result of %s: %d (%s)", id, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET result of %s: content type %q", id, ct)
	}
	var res ResultPayload
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("GET result of %s: decoding %.200q: %v", id, body, err)
	}
	var again bytes.Buffer
	enc := json.NewEncoder(&again)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(&res); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, again.Bytes()) {
		t.Fatalf("GET result of %s: body is not encoding/json's encoding of itself\n got %.300q\nwant %.300q",
			id, body, again.Bytes())
	}
	return res, body
}

// waitState polls the job until it reaches want (or any terminal state).
func waitState(t *testing.T, base, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st JobStatus
		doJSON(t, "GET", base+"/jobs/"+id, nil, &st, http.StatusOK)
		if st.State == want {
			return st
		}
		if st.State != StateRunning {
			t.Fatalf("job %s reached %q (%s), want %q", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q waiting for %q", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// libraryRun executes the same spec directly through the library — the
// server's results must be identical for any job configuration.
func libraryRun(t *testing.T, spec *JobSpec) *crowdjoin.JoinResult {
	t.Helper()
	sp := *spec
	if err := sp.normalize(); err != nil {
		t.Fatal(err)
	}
	ents := newEntities(&sp)
	opts := []crowdjoin.JoinOption{
		crowdjoin.WithMatcher(crowdjoin.Matcher{Threshold: sp.Threshold, UseIDF: sp.IDF}),
		crowdjoin.WithStrategy(sp.strategy()),
		crowdjoin.WithConcurrency(sp.Concurrency),
	}
	a, b := sp.texts()
	if sp.bipartite() {
		opts = append(opts, crowdjoin.WithTextsAcross(a, b))
	} else {
		opts = append(opts, crowdjoin.WithTexts(a))
	}
	if sp.Order == "given" {
		opts = append(opts, crowdjoin.WithOrder(crowdjoin.OrderAsGiven))
	}
	if sp.Accept != 0 || sp.Reject != 0 {
		opts = append(opts, crowdjoin.WithTriage(sp.Accept, sp.Reject))
	}
	if sp.Router == RouterBalanced {
		opts = append(opts, crowdjoin.WithRouter(crowdjoin.BalancedRouter))
	}
	if sp.Strategy == StrategyPlatform {
		opts = append(opts,
			crowdjoin.WithPlatform(crowdjoin.NewSimulatedCrowd(ents.oracle(), crowdjoin.SelectFIFO, nil)),
			crowdjoin.WithInstantDecisions(sp.Instant),
		)
	} else {
		opts = append(opts, crowdjoin.WithOracle(ents.oracle()))
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

// TestServerDifferential: for every strategy and weighting the HTTP
// service must produce exactly the library's outcome — same clusters, same
// crowd cost, same deductions — because a server job *is* a library
// session; only the crowd transport differs. The server runs several
// workers with a small latency, so answers finish out of dispatch order;
// an instant-decision platform job must still see them in that order,
// like the library's first-in-first-out crowd.
func TestServerDifferential(t *testing.T) {
	recs := corpus(36)
	bipA, bipB := corpus(18), corpus(24)[6:]
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"platform", JobSpec{Records: recs}},
		{"platform-sharded", JobSpec{Records: recs, Concurrency: 3}},
		{"platform-idf", JobSpec{Records: recs, IDF: true}},
		{"platform-instant", JobSpec{Records: corpus(120), Instant: true}},
		{"sequential", JobSpec{Records: recs, Strategy: StrategySequential}},
		{"parallel", JobSpec{Records: recs, Strategy: StrategyParallel, Concurrency: 2}},
		{"budget", JobSpec{Records: recs, Strategy: StrategyBudget, Budget: 10}},
		{"onetoone-bipartite", JobSpec{Records: bipA, RecordsB: bipB, Strategy: StrategyOneToOne}},
		{"platform-bipartite", JobSpec{Records: bipA, RecordsB: bipB}},
		{"order-given", JobSpec{Records: recs, Order: "given"}},
		{"platform-triage", JobSpec{Records: recs, Accept: 0.7, Reject: 0.2}},
		{"parallel-triage-sharded", JobSpec{Records: recs, Strategy: StrategyParallel, Concurrency: 3, Accept: 0.7, Reject: 0.2}},
		{"parallel-balanced", JobSpec{Records: recs, Strategy: StrategyParallel, Concurrency: 2, Router: RouterBalanced}},
	}
	_, ts := newTestServer(t, Config{Workers: 7, Latency: 20 * time.Microsecond})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := libraryRun(t, &tc.spec)

			var created JobStatus
			doJSON(t, "POST", ts.URL+"/jobs", tc.spec, &created, http.StatusCreated)
			waitState(t, ts.URL, created.ID, StateDone)
			var got ResultPayload
			doJSON(t, "GET", ts.URL+"/jobs/"+created.ID+"/result", nil, &got, http.StatusOK)

			if got.Partial {
				t.Fatal("completed job reported a partial result")
			}
			if got.NumPairs != len(want.Order) {
				t.Fatalf("candidate pairs: server %d, library %d", got.NumPairs, len(want.Order))
			}
			if got.Crowdsourced != want.NumCrowdsourced || got.Deduced != want.NumDeduced {
				t.Fatalf("crowd cost: server %d/%d, library %d/%d (crowdsourced/deduced)",
					got.Crowdsourced, got.Deduced, want.NumCrowdsourced, want.NumDeduced)
			}
			if got.Guessed != want.NumGuessed {
				t.Fatalf("guessed: server %d, library %d", got.Guessed, want.NumGuessed)
			}
			if got.TriageAccepted != want.TriageAccepted || got.TriageRejected != want.TriageRejected {
				t.Fatalf("triage: server %d/%d, library %d/%d (accepted/rejected)",
					got.TriageAccepted, got.TriageRejected, want.TriageAccepted, want.TriageRejected)
			}
			wantClusters, err := want.Clusters()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Clusters, wantClusters) {
				t.Fatalf("clusters differ:\nserver  %v\nlibrary %v", got.Clusters, wantClusters)
			}
		})
	}
}

// TestSchedulerFairness: one job with a giant candidate set shares the
// crowd with many small jobs submitted while it is mid-flight. The
// round-robin ring hands each job one question per turn, so every small
// job must finish while the giant one is still running — a largest-first
// or FIFO dispatch would make them wait out the giant job's rounds.
func TestSchedulerFairness(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Latency: 2 * time.Millisecond})

	var giant JobStatus
	doJSON(t, "POST", ts.URL+"/jobs", JobSpec{Records: corpus(120)}, &giant, http.StatusCreated)
	// Wait until the giant job's first round is on the ring before the
	// small jobs arrive, so they genuinely queue behind it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st JobStatus
		doJSON(t, "GET", ts.URL+"/jobs/"+giant.ID, nil, &st, http.StatusOK)
		if st.Crowdsourced >= 1 {
			break
		}
		if st.State != StateRunning || time.Now().After(deadline) {
			t.Fatalf("giant job stalled in %q with %d crowdsourced", st.State, st.Crowdsourced)
		}
		time.Sleep(time.Millisecond)
	}

	small := make([]string, 8)
	for i := range small {
		var created JobStatus
		doJSON(t, "POST", ts.URL+"/jobs", JobSpec{Records: corpus(6)}, &created, http.StatusCreated)
		small[i] = created.ID
	}
	for _, id := range small {
		waitState(t, ts.URL, id, StateDone)
	}
	var st JobStatus
	doJSON(t, "GET", ts.URL+"/jobs/"+giant.ID, nil, &st, http.StatusOK)
	if st.State != StateRunning {
		t.Fatalf("giant job already %q when the last small job finished — small jobs were starved behind it", st.State)
	}
	waitState(t, ts.URL, giant.ID, StateDone)
}

// journaledPairs parses every job journal under dataDir and returns the
// set of durably recorded answers per job.
func journaledPairs(t *testing.T, dataDir string) map[string]map[[2]int32]bool {
	t.Helper()
	out := make(map[string]map[[2]int32]bool)
	dirs, err := os.ReadDir(filepath.Join(dataDir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		data, err := os.ReadFile(filepath.Join(dataDir, "jobs", d.Name(), "journal.log"))
		if err != nil {
			continue
		}
		set := make(map[[2]int32]bool)
		for _, line := range strings.Split(string(data), "\n") {
			f := strings.Fields(line)
			if len(f) != 3 || (f[0] != "m" && f[0] != "n") {
				continue
			}
			a, err1 := strconv.Atoi(f[1])
			b, err2 := strconv.Atoi(f[2])
			if err1 != nil || err2 != nil {
				continue
			}
			set[pairKey(int32(a), int32(b))] = true
		}
		out[d.Name()] = set
	}
	return out
}

func pairKey(a, b int32) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{a, b}
}

// askTracker records, per job, every question that actually reached the
// crowd (journal replays bypass it by construction).
type askTracker struct {
	mu    sync.Mutex
	asked map[string]map[[2]int32]int
}

func newAskTracker() *askTracker {
	return &askTracker{asked: make(map[string]map[[2]int32]int)}
}

func (a *askTracker) wrap(delay time.Duration) func(string, Oracle) Oracle {
	return func(jobID string, o Oracle) Oracle {
		return crowdjoin.OracleFunc(func(p crowdjoin.Pair) crowdjoin.Label {
			a.mu.Lock()
			m := a.asked[jobID]
			if m == nil {
				m = make(map[[2]int32]int)
				a.asked[jobID] = m
			}
			m[pairKey(p.A, p.B)]++
			a.mu.Unlock()
			if delay > 0 {
				time.Sleep(delay)
			}
			return o.Label(p)
		})
	}
}

// TestServerCrashResume: several jobs across strategies run against a slow
// crowd; the server goes down mid-flight and a new one starts on the same
// data directory. Every job must complete, and no answer that reached the
// journal before the crash may ever be bought again.
func TestServerCrashResume(t *testing.T) {
	dataDir := t.TempDir()
	tracker := newAskTracker()

	cfg := func() Config {
		return Config{
			DataDir:    dataDir,
			Workers:    6,
			WrapOracle: tracker.wrap(2 * time.Millisecond),
		}
	}

	s1, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)

	recs := corpus(60)
	specs := []JobSpec{
		{Records: recs},
		{Records: recs, Concurrency: 3},
		{Records: recs, Strategy: StrategySequential},
		{Records: recs, Strategy: StrategyParallel},
	}
	ids := make([]string, len(specs))
	for i, sp := range specs {
		var created JobStatus
		doJSON(t, "POST", ts1.URL+"/jobs", sp, &created, http.StatusCreated)
		ids[i] = created.ID
	}
	// A streaming job: one batch lands before the crash, the rest after.
	var streamJob JobStatus
	doJSON(t, "POST", ts1.URL+"/jobs", JobSpec{Streaming: true, Records: recs[:12]}, &streamJob, http.StatusCreated)
	doJSON(t, "POST", ts1.URL+"/jobs/"+streamJob.ID+"/batches",
		batchLine{Records: recs[12:24]}, nil, http.StatusAccepted)

	// Let every job make real progress, then go down mid-flight.
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range append(ids, streamJob.ID) {
		for {
			var st JobStatus
			doJSON(t, "GET", ts1.URL+"/jobs/"+id, nil, &st, http.StatusOK)
			if st.Crowdsourced >= 3 || st.State == StateDone {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s made no progress", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// What the journals durably hold at the crash: these answers are paid
	// for and must never be bought again. Jobs without a terminal marker
	// are the ones the restart must resume.
	journaled := journaledPairs(t, dataDir)
	resumed := make(map[string]bool)
	for _, id := range append(append([]string{}, ids...), streamJob.ID) {
		if _, err := os.Stat(filepath.Join(dataDir, "jobs", id, "state.json")); err != nil {
			resumed[id] = true
		}
	}
	if len(resumed) == 0 {
		t.Fatal("every job finished before the kill; nothing exercised resume")
	}
	tracker.mu.Lock()
	askedBefore := make(map[string]map[[2]int32]int, len(tracker.asked))
	for id, m := range tracker.asked {
		cp := make(map[[2]int32]int, len(m))
		for k, v := range m {
			cp[k] = v
		}
		askedBefore[id] = cp
	}
	tracker.mu.Unlock()

	s2, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2)
	defer func() {
		ts2.Close()
		s2.Close()
	}()

	// Finish the stream over the new server.
	doJSON(t, "POST", ts2.URL+"/jobs/"+streamJob.ID+"/batches",
		batchLine{Records: recs[24:], Final: true}, nil, http.StatusAccepted)

	allIDs := append(append([]string{}, ids...), streamJob.ID)
	for _, id := range allIDs {
		st := waitState(t, ts2.URL, id, StateDone)
		res, _ := getResult(t, ts2.URL, id)
		if res.Partial {
			t.Fatalf("job %s: resumed run ended partial", id)
		}
		if res.Crowdsourced+res.Deduced+res.Guessed != res.NumPairs {
			t.Fatalf("job %s: %d pairs but %d labeled", id, res.NumPairs,
				res.Crowdsourced+res.Deduced+res.Guessed)
		}
		// Every pair's label must agree with the ground truth.
		ents := map[int32]string{}
		for i, r := range recs {
			ents[int32(i)] = r.Entity
		}
		for _, pr := range res.Pairs {
			want := "non-matching"
			if ents[pr.A] == ents[pr.B] {
				want = "matching"
			}
			if pr.Label != want && pr.Label != "unlabeled" {
				t.Fatalf("job %s: pair (%d,%d) labeled %s, want %s", id, pr.A, pr.B, pr.Label, want)
			}
			if pr.Label == "unlabeled" {
				t.Fatalf("job %s: pair (%d,%d) left unlabeled on a done job", id, pr.A, pr.B)
			}
		}
		if resumed[id] && st.Replayed == 0 && len(journaled[id]) > 0 {
			t.Fatalf("job %s: journal held %d answers but the resumed run replayed none",
				id, len(journaled[id]))
		}
	}

	// The resume guarantee: zero journaled answers re-crowdsourced, and no
	// question asked twice within either server's lifetime.
	tracker.mu.Lock()
	defer tracker.mu.Unlock()
	for id, m := range tracker.asked {
		for k, n := range m {
			if before := askedBefore[id][k]; journaled[id][k] && n > before {
				t.Errorf("job %s: journaled pair %v re-crowdsourced after restart", id, k)
			}
			if n > 2 {
				t.Errorf("job %s: pair %v asked %d times", id, k, n)
			}
			if n == 2 && journaled[id][k] && askedBefore[id][k] == 2 {
				t.Errorf("job %s: pair %v asked twice before the crash", id, k)
			}
		}
	}
}

// TestServerResultBodyAcrossRestart: the GET /result bodies of a done, a
// cancelled and a budget-exhausted job are encoding/json's encoding of
// their payloads, and a new server on the same data directory serves the
// done and cancelled jobs' bodies, and the done job's ?format=text, byte
// for byte as before.
func TestServerResultBodyAcrossRestart(t *testing.T) {
	dataDir := t.TempDir()
	tracker := newAskTracker()
	cfg := Config{
		DataDir:      dataDir,
		Workers:      2,
		TenantLimits: map[string]TenantLimits{"budgeted": {QuestionBudget: 5}},
		WrapOracle:   tracker.wrap(time.Millisecond),
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	t.Cleanup(func() {
		ts1.Close()
		s1.Close()
	})
	submit := func(spec JobSpec) string {
		var created JobStatus
		doJSON(t, "POST", ts1.URL+"/jobs", spec, &created, http.StatusCreated)
		return created.ID
	}
	text := func(base, id string) string {
		resp, err := http.Get(base + "/jobs/" + id + "/result?format=text")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	done := submit(JobSpec{Records: corpus(30), Strategy: StrategyParallel})
	waitState(t, ts1.URL, done, StateDone)
	cancelled := submit(JobSpec{Records: corpus(60), Strategy: StrategySequential})
	for {
		var st JobStatus
		doJSON(t, "GET", ts1.URL+"/jobs/"+cancelled, nil, &st, http.StatusOK)
		if st.Crowdsourced >= 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	doJSON(t, "DELETE", ts1.URL+"/jobs/"+cancelled, nil, nil, http.StatusAccepted)
	waitState(t, ts1.URL, cancelled, StateCancelled)
	budgeted := submit(JobSpec{Tenant: "budgeted", Records: corpus(36), Strategy: StrategySequential})
	waitState(t, ts1.URL, budgeted, StateFailed)

	doneRes, doneBody := getResult(t, ts1.URL, done)
	cancelledRes, cancelledBody := getResult(t, ts1.URL, cancelled)
	budgetRes, _ := getResult(t, ts1.URL, budgeted)
	if doneRes.Partial || !cancelledRes.Partial || !budgetRes.Partial {
		t.Fatalf("partial flags done/cancelled/budget = %v/%v/%v, want false/true/true",
			doneRes.Partial, cancelledRes.Partial, budgetRes.Partial)
	}
	if len(doneRes.Pairs) == 0 || cancelledRes.Crowdsourced == 0 || budgetRes.Crowdsourced == 0 {
		t.Fatal("a result lost its pairs or answers")
	}
	doneText := text(ts1.URL, done)
	if !strings.Contains(doneText, "---") {
		t.Fatalf("text format produced no clusters: %q", doneText)
	}

	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, cfg)
	for _, c := range []struct {
		id   string
		body []byte
	}{{done, doneBody}, {cancelled, cancelledBody}} {
		if _, body := getResult(t, ts2.URL, c.id); !bytes.Equal(body, c.body) {
			t.Fatalf("job %s: result after the restart differs\n got %.300q\nwant %.300q", c.id, body, c.body)
		}
	}
	if got := text(ts2.URL, done); got != doneText {
		t.Fatalf("text format after the restart differs:\n got %q\nwant %q", got, doneText)
	}
}

// TestServerCancelPartial: cancelling a slow job yields a valid partial
// result — consistent labels, clusters served — and the job ends
// "cancelled", durably (a restart does not resurrect it).
func TestServerCancelPartial(t *testing.T) {
	dataDir := t.TempDir()
	tracker := newAskTracker()
	s, ts := newTestServer(t, Config{
		DataDir:    dataDir,
		Workers:    2,
		WrapOracle: tracker.wrap(3 * time.Millisecond),
	})

	var created JobStatus
	doJSON(t, "POST", ts.URL+"/jobs", JobSpec{Records: corpus(60)}, &created, http.StatusCreated)
	// Wait for some progress so the partial result is non-trivial.
	for {
		var st JobStatus
		doJSON(t, "GET", ts.URL+"/jobs/"+created.ID, nil, &st, http.StatusOK)
		if st.Crowdsourced >= 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	doJSON(t, "DELETE", ts.URL+"/jobs/"+created.ID, nil, nil, http.StatusAccepted)
	waitState(t, ts.URL, created.ID, StateCancelled)

	var res ResultPayload
	doJSON(t, "GET", ts.URL+"/jobs/"+created.ID+"/result", nil, &res, http.StatusOK)
	if !res.Partial {
		t.Fatal("cancelled job's result not marked partial")
	}
	if res.Crowdsourced == 0 {
		t.Fatal("partial result lost the answers bought before the cancel")
	}
	if res.Clusters == nil {
		t.Fatal("partial result has no clusters")
	}

	// Cancellation is terminal and durable: a restart serves the same
	// partial result instead of resuming the job.
	ts.Close()
	s.Close()
	s2, ts2 := newTestServer(t, Config{DataDir: dataDir, WrapOracle: tracker.wrap(0)})
	defer s2.Close()
	var st JobStatus
	doJSON(t, "GET", ts2.URL+"/jobs/"+created.ID, nil, &st, http.StatusOK)
	if st.State != StateCancelled {
		t.Fatalf("restarted server reports %q, want cancelled", st.State)
	}
	var res2 ResultPayload
	doJSON(t, "GET", ts2.URL+"/jobs/"+created.ID+"/result", nil, &res2, http.StatusOK)
	if res2.Crowdsourced != res.Crowdsourced || len(res2.Pairs) != len(res.Pairs) {
		t.Fatal("persisted partial result differs from the one served before restart")
	}
}

// TestServerStreamingJob: records stream in over the batch endpoint; the
// finished job's labels match ground truth, and answers bought mid-stream
// were replayed, not re-asked.
func TestServerStreamingJob(t *testing.T) {
	tracker := newAskTracker()
	_, ts := newTestServer(t, Config{WrapOracle: tracker.wrap(0)})
	recs := corpus(30)

	var created JobStatus
	doJSON(t, "POST", ts.URL+"/jobs", JobSpec{Streaming: true, Records: recs[:10]}, &created, http.StatusCreated)
	doJSON(t, "POST", ts.URL+"/jobs/"+created.ID+"/batches", batchLine{Records: recs[10:20]}, nil, http.StatusAccepted)
	doJSON(t, "POST", ts.URL+"/jobs/"+created.ID+"/batches", batchLine{Records: recs[20:], Final: true}, nil, http.StatusAccepted)
	st := waitState(t, ts.URL, created.ID, StateDone)
	if st.Appends == 0 {
		t.Fatal("no record-appended events counted")
	}

	var res ResultPayload
	doJSON(t, "GET", ts.URL+"/jobs/"+created.ID+"/result", nil, &res, http.StatusOK)
	if res.NumObjects != len(recs) {
		t.Fatalf("universe %d, want %d", res.NumObjects, len(recs))
	}
	for _, pr := range res.Pairs {
		want := "non-matching"
		if recs[pr.A].Entity == recs[pr.B].Entity {
			want = "matching"
		}
		if pr.Label != want {
			t.Fatalf("pair (%d,%d) labeled %s, want %s", pr.A, pr.B, pr.Label, want)
		}
	}
	// No pair may have been bought twice across the mid-stream runs.
	tracker.mu.Lock()
	defer tracker.mu.Unlock()
	for k, n := range tracker.asked[created.ID] {
		if n > 1 {
			t.Errorf("pair %v asked %d times across stream runs", k, n)
		}
	}
	// A follow-up batch after final is refused.
	doJSON(t, "POST", ts.URL+"/jobs/"+created.ID+"/batches", batchLine{Records: recs[:1]}, nil, http.StatusConflict)
}

// TestServerTenantLimits: concurrent-job caps reject with 429; question
// budgets stop a job with a partial result; usage reports both.
func TestServerTenantLimits(t *testing.T) {
	tracker := newAskTracker()
	_, ts := newTestServer(t, Config{
		Workers: 2,
		TenantLimits: map[string]TenantLimits{
			"capped":   {MaxActiveJobs: 1},
			"budgeted": {QuestionBudget: 5},
		},
		WrapOracle: tracker.wrap(2 * time.Millisecond),
	})
	recs := corpus(36)

	// Concurrency cap: the second submission is refused while the first runs.
	var first JobStatus
	doJSON(t, "POST", ts.URL+"/jobs", JobSpec{Tenant: "capped", Records: recs}, &first, http.StatusCreated)
	doJSON(t, "POST", ts.URL+"/jobs", JobSpec{Tenant: "capped", Records: recs}, nil, http.StatusTooManyRequests)
	waitState(t, ts.URL, first.ID, StateDone)
	// Slot released: submitting works again.
	var second JobStatus
	doJSON(t, "POST", ts.URL+"/jobs", JobSpec{Tenant: "capped", Records: corpus(6)}, &second, http.StatusCreated)
	waitState(t, ts.URL, second.ID, StateDone)

	// Budget: a sequential job (one question at a time) stops once 5
	// questions are spent, with a partial result. (A platform job whose
	// whole first round exceeds the budget stops before spending anything:
	// reservations are per publish.)
	var bj JobStatus
	doJSON(t, "POST", ts.URL+"/jobs",
		JobSpec{Tenant: "budgeted", Records: recs, Strategy: StrategySequential}, &bj, http.StatusCreated)
	st := waitState(t, ts.URL, bj.ID, StateFailed)
	if !strings.Contains(st.Error, "budget") {
		t.Fatalf("budget job failed with %q", st.Error)
	}
	var res ResultPayload
	doJSON(t, "GET", ts.URL+"/jobs/"+bj.ID+"/result", nil, &res, http.StatusOK)
	if !res.Partial {
		t.Fatal("budget-stopped job's result not partial")
	}
	if res.Crowdsourced > 5 {
		t.Fatalf("budget 5 but %d crowdsourced", res.Crowdsourced)
	}

	var u Usage
	doJSON(t, "GET", ts.URL+"/tenants/budgeted/usage", nil, &u, http.StatusOK)
	if u.QuestionsAsked > 5 || u.QuestionsAsked == 0 {
		t.Fatalf("usage reports %d questions under budget 5", u.QuestionsAsked)
	}
	if u.BudgetRemaining != 5-u.QuestionsAsked {
		t.Fatalf("budget remaining %d with %d asked", u.BudgetRemaining, u.QuestionsAsked)
	}
	var cu Usage
	doJSON(t, "GET", ts.URL+"/tenants/capped/usage", nil, &cu, http.StatusOK)
	if cu.TotalJobs != 2 || cu.ActiveJobs != 0 {
		t.Fatalf("capped tenant usage: %+v", cu)
	}
	if cu.QuestionsAsked == 0 {
		t.Fatal("capped tenant spent nothing?")
	}
	if cu.BudgetRemaining != -1 {
		t.Fatalf("unlimited tenant reports budget remaining %d", cu.BudgetRemaining)
	}
}

// TestReserveRateLimit drives the token bucket with a fake clock: a burst
// passes instantly, then reservations pace out at the configured rate,
// and oversized reservations drive the bucket into debt instead of
// deadlocking.
func TestReserveRateLimit(t *testing.T) {
	a := newAccounts(TenantLimits{QuestionsPerSec: 100, Burst: 10}, nil)
	now := time.Unix(0, 0)
	var slept time.Duration
	a.now = func() time.Time { return now }
	a.sleep = func(ctx context.Context, d time.Duration) error {
		slept += d
		now = now.Add(d)
		return nil
	}
	ctx := context.Background()
	if err := a.reserve(ctx, "t", 10); err != nil {
		t.Fatal(err)
	}
	if slept != 0 {
		t.Fatalf("burst made us wait %v", slept)
	}
	// Larger than the burst: waits for one token, then goes into debt.
	if err := a.reserve(ctx, "t", 100); err != nil {
		t.Fatal(err)
	}
	if slept == 0 {
		t.Fatal("post-burst reservation did not wait")
	}
	preDebt := slept
	// The debt must be paid off before the next question.
	if err := a.reserve(ctx, "t", 1); err != nil {
		t.Fatal(err)
	}
	if paid := slept - preDebt; paid < 900*time.Millisecond {
		t.Fatalf("100-question debt at 100 qps repaid after only %v", paid)
	}
	if got := a.usage("t").QuestionsAsked; got != 111 {
		t.Fatalf("asked %d, want 111", got)
	}
	// Cancellation interrupts the wait.
	cctx, cancel := context.WithCancelCause(context.Background())
	cancel(ErrBudgetExhausted)
	a.sleep = func(ctx context.Context, d time.Duration) error { return context.Cause(ctx) }
	if err := a.reserve(cctx, "t", 50); err == nil {
		t.Fatal("cancelled reserve succeeded")
	}
}

// TestServerEvents: the SSE stream carries the job's full history (thanks
// to the replay buffer) and ends with a terminal state event; the
// crowdsourced events agree with the result's counters.
func TestServerEvents(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	var created JobStatus
	doJSON(t, "POST", ts.URL+"/jobs", JobSpec{Records: corpus(18)}, &created, http.StatusCreated)
	waitState(t, ts.URL, created.ID, StateDone)

	resp, err := http.Get(ts.URL + "/jobs/" + created.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var events []JobEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var e JobEvent
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			events = append(events, e)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	last := events[len(events)-1]
	if last.Kind != "state" || last.State != StateDone {
		t.Fatalf("stream ended with %+v, want state=done", last)
	}
	var crowdsourced, deduced int
	for i, e := range events {
		if e.Seq != int64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		switch e.Kind {
		case "pair-crowdsourced":
			crowdsourced++
			if e.Pair == nil || e.Label == "" {
				t.Fatalf("pair event without pair/label: %+v", e)
			}
		case "pair-deduced":
			deduced++
		}
	}
	var res ResultPayload
	doJSON(t, "GET", ts.URL+"/jobs/"+created.ID+"/result", nil, &res, http.StatusOK)
	if crowdsourced != res.Crowdsourced || deduced != res.Deduced {
		t.Fatalf("events %d/%d, result %d/%d (crowdsourced/deduced)",
			crowdsourced, deduced, res.Crowdsourced, res.Deduced)
	}

	// Last-Event-ID resumption: asking from the middle replays only the tail.
	req, _ := http.NewRequest("GET", ts.URL+"/jobs/"+created.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", strconv.FormatInt(last.Seq-1, 10))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	tail, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(tail), fmt.Sprintf("id: %d", last.Seq)) {
		t.Fatalf("resumed stream missing final event: %q", tail)
	}
	if strings.Contains(string(tail), "id: 0\n") {
		t.Fatal("resumed stream replayed from the beginning")
	}
}

// TestServerEventsReplayWrappedRing: a closed job whose hub has wrapped
// the ring three times serves, for each Last-Event-ID, exactly the
// retained events above the cursor, in order, each framed as
// "id: <seq>\nevent: <kind>\ndata: <json>\n\n".
func TestServerEventsReplayWrappedRing(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const total = 3*hubBuffer + 5
	h := newEventHub()
	want := make([]JobEvent, total)
	for i := range want {
		e := hubEvent(i)
		if i == total-1 {
			e = JobEvent{Kind: "state", State: StateDone}
		}
		h.publish(e)
		e.Seq = int64(i)
		want[i] = e
	}
	h.close()
	s.mu.Lock()
	s.jobs["j-wrapped"] = &job{id: "j-wrapped", hub: h}
	s.mu.Unlock()

	oldest := int64(total - hubBuffer)
	for _, c := range []struct {
		lastID string
		from   int64 // first seq the response must carry
	}{
		{"", oldest},
		{"17", oldest},
		{strconv.FormatInt(total-100, 10), total - 99},
		{strconv.FormatInt(total-1, 10), total},
	} {
		req, err := http.NewRequest("GET", ts.URL+"/jobs/j-wrapped/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.lastID != "" {
			req.Header.Set("Last-Event-ID", c.lastID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		frames, ok := bytes.CutPrefix(body, []byte("retry: 1000\n\n"))
		if !ok {
			t.Fatalf("Last-Event-ID %q: stream does not open with the retry field: %.40q", c.lastID, body)
		}
		for seq := c.from; seq < total; seq++ {
			e := want[seq]
			data, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			frame := fmt.Sprintf("id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Kind, data)
			rest, ok := bytes.CutPrefix(frames, []byte(frame))
			if !ok {
				t.Fatalf("Last-Event-ID %q: at seq %d got %.120q, want %q", c.lastID, seq, frames, frame)
			}
			frames = rest
		}
		if len(frames) != 0 {
			t.Fatalf("Last-Event-ID %q: %d bytes after the last event: %.120q", c.lastID, len(frames), frames)
		}
	}
}

// TestServerCloseEndsEventStreams: Server.Close ends an open event stream
// with the shutdown's failed state, leaves no handler waiting (the
// httptest server's Close returns), and a new server on the same data
// directory finishes the job without asking a journaled pair again.
func TestServerCloseEndsEventStreams(t *testing.T) {
	dataDir := t.TempDir()
	tracker := newAskTracker()
	s1, err := New(Config{DataDir: dataDir, Workers: 2, WrapOracle: tracker.wrap(3 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	t.Cleanup(func() { // both Closes are idempotent; this covers early failures
		ts1.Close()
		s1.Close()
	})
	var created JobStatus
	doJSON(t, "POST", ts1.URL+"/jobs", JobSpec{Records: corpus(60)}, &created, http.StatusCreated)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts1.URL+"/jobs/"+created.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var (
		last         JobEvent
		crowdsourced int
		closed       = make(chan error, 1)
		closedAt     time.Time
	)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		last = JobEvent{}
		if err := json.Unmarshal([]byte(data), &last); err != nil {
			t.Fatalf("bad SSE data %q: %v", data, err)
		}
		if last.Kind == "pair-crowdsourced" {
			crowdsourced++
		}
		if crowdsourced == 3 && closedAt.IsZero() {
			closedAt = time.Now()
			time.AfterFunc(5*time.Second, cancel)
			go func() { closed <- s1.Close() }()
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("event stream did not end within 5s of Server.Close: %v", err)
	}
	if closedAt.IsZero() {
		t.Fatalf("job ended with %+v before 3 pairs were crowdsourced", last)
	}
	if last.Kind != "state" || last.State != StateFailed || last.Error != errShutdown.Error() {
		t.Fatalf("stream ended with %+v, want state %s (%s)", last, StateFailed, errShutdown)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	tsClosed := make(chan struct{})
	go func() {
		ts1.Close()
		close(tsClosed)
	}()
	select {
	case <-tsClosed:
	case <-time.After(5 * time.Second):
		t.Fatal("httptest server Close did not return: a handler is still open")
	}

	journaled := journaledPairs(t, dataDir)[created.ID]
	if len(journaled) == 0 {
		t.Fatal("nothing journaled before the shutdown")
	}
	tracker.mu.Lock()
	askedBefore := make(map[[2]int32]int, len(tracker.asked[created.ID]))
	for k, n := range tracker.asked[created.ID] {
		askedBefore[k] = n
	}
	tracker.mu.Unlock()

	_, ts2 := newTestServer(t, Config{DataDir: dataDir, Workers: 2, WrapOracle: tracker.wrap(0)})
	if st := waitState(t, ts2.URL, created.ID, StateDone); st.Replayed == 0 {
		t.Fatalf("resumed job replayed nothing of the %d journaled answers", len(journaled))
	}
	tracker.mu.Lock()
	defer tracker.mu.Unlock()
	for k, n := range tracker.asked[created.ID] {
		if journaled[k] && n > askedBefore[k] {
			t.Errorf("journaled pair %v asked again after the restart", k)
		}
	}
}

// TestServerValidation: malformed submissions are rejected up front.
func TestServerValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bad := []map[string]any{
		{"records": []string{}},
		{"records": []string{"a"}, "strategy": "zigzag"},
		{"records": []string{"a"}, "threshold": 1.5},
		{"records": []string{"a"}, "strategy": "budget", "concurrency": 2, "budget": 3},
		{"records": []any{map[string]any{"entity": "x"}}},
		{"records": []string{"a"}, "unknown_field": 1},
		{"records": []string{"a"}, "accept": 0.2, "reject": 0.5},
		{"records": []string{"a"}, "strategy": "budget", "budget": 3, "accept": 0.7},
		{"records": []string{"a"}, "router": "balanced"},
		{"records": []string{"a"}, "router": "zigzag"},
	}
	for _, spec := range bad {
		doJSON(t, "POST", ts.URL+"/jobs", spec, nil, http.StatusBadRequest)
	}
	doJSON(t, "GET", ts.URL+"/jobs/nope", nil, nil, http.StatusNotFound)
	// Result of a running job conflicts; text format serves clusters.
	var created JobStatus
	doJSON(t, "POST", ts.URL+"/jobs", JobSpec{Records: corpus(9)}, &created, http.StatusCreated)
	waitState(t, ts.URL, created.ID, StateDone)
	resp, err := http.Get(ts.URL + "/jobs/" + created.ID + "/result?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(text), "---") {
		t.Fatalf("text format produced no clusters: %q", text)
	}
	// Batches only apply to streaming jobs.
	doJSON(t, "POST", ts.URL+"/jobs/"+created.ID+"/batches", batchLine{Records: corpus(3)}, nil, http.StatusBadRequest)
}
