package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"crowdjoin"
	"crowdjoin/internal/server"
)

// serverPasses is how many passes over serverPass, each on fresh corpora,
// make up the server-mixed job cycle.
const serverPasses = 12

// rotateEvery is how many jobs one server instance takes before the next
// submission goes to a fresh one. The server keeps every job in memory and
// on disk for its lifetime; rotating keeps both bounded over a run.
var rotateEvery = 2 * len(serverPass)

// jobTimeout bounds one server op: a job whose terminal event never
// arrives fails instead of hanging the run.
const jobTimeout = 60 * time.Second

// serverJobKind is one entry of the job cycle.
type serverJobKind struct {
	class string // "small" or "large", for the per-class latency split
	spec  func(seed int64) (*server.JobSpec, *corpus)
}

// serverPass is one pass of the server-mixed job cycle; the cycle is
// serverPasses passes over fresh corpora. Small dedup jobs cover three
// strategies, one bipartite Product job runs one-to-one, and two full
// Paper jobs are large enough to overflow the per-job event ring. With a
// quarter of the jobs large, op_ms_p50 falls among small jobs and the p90
// tail well inside the large ones.
var serverPass = []serverJobKind{
	{"small", smallJob(platformInstant)},
	{"small", smallJob(parallelBalanced)},
	{"small", smallJob(sequentialTriage)},
	{"large", paperJob},
	{"small", productJob},
	{"small", smallJob(platformInstant)},
	{"small", smallJob(parallelBalanced)},
	{"large", paperJob},
}

// Job configurations of the cycle.
var (
	platformInstant  = func(s *server.JobSpec) { s.Strategy, s.Instant = server.StrategyPlatform, true }
	parallelBalanced = func(s *server.JobSpec) {
		s.Strategy, s.Concurrency, s.Router = server.StrategyParallel, 2, server.RouterBalanced
	}
	sequentialTriage = func(s *server.JobSpec) { s.Strategy, s.Accept, s.Reject = server.StrategySequential, 0.7, 0.2 }
)

// paperJob is a full 997-record Paper job on the default platform strategy.
func paperJob(seed int64) (*server.JobSpec, *corpus) {
	c := paperCorpus(997, seed)
	return &server.JobSpec{Records: records(c)}, c
}

// productJob is a bipartite 300+300-record Product job, one-to-one.
func productJob(seed int64) (*server.JobSpec, *corpus) {
	c := productCorpus(300, seed)
	recs := records(c)
	return &server.JobSpec{Records: recs[:c.nA], RecordsB: recs[c.nA:], Strategy: server.StrategyOneToOne}, c
}

// smallJob is a ~300-record Paper-style dedup job configured by cfg.
func smallJob(cfg func(*server.JobSpec)) func(seed int64) (*server.JobSpec, *corpus) {
	return func(seed int64) (*server.JobSpec, *corpus) {
		c := paperCorpus(300, seed)
		s := &server.JobSpec{Records: records(c)}
		cfg(s)
		return s, c
	}
}

// records turns a corpus into job records keyed by entity.
func records(c *corpus) []server.Record {
	out := make([]server.Record, len(c.texts))
	for i, t := range c.texts {
		out[i] = server.Record{Text: t, Entity: strconv.Itoa(int(c.entity[i]))}
	}
	return out
}

// serverJob is one job of the cycle with its reference outcome.
type serverJob struct {
	class    string
	body     []byte
	clusters [][]int32
	asked    int
	rounds   int
	f1       float64
}

// generation is one running server instance behind a loopback listener.
type generation struct {
	srv   *server.Server
	hs    *http.Server
	serve chan error
	base  string
	dir   string
	// guarded by serverMixed.mu
	submitted, inflight int
	retired             bool
}

type serverMixed struct {
	jobs   []serverJob
	dir    string
	client *http.Client

	mu   sync.Mutex
	next int64 // guarded by mu, like gens and cur
	gens int
	cur  *generation
}

// setupServerMixed builds the job cycle, runs every spec directly through
// the library for its reference (one job per CPU at a time), starts the
// server and runs one pass of the cycle through it as warm-up.
func setupServerMixed(seed int64, dir string) (instance, error) {
	w := &serverMixed{dir: dir, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		jobs: make([]serverJob, serverPasses*len(serverPass))}
	err := forEach(len(w.jobs), func(i int) error {
		kind := serverPass[i%len(serverPass)]
		spec, c := kind.spec(subSeed(seed, i))
		res, err := libraryRun(spec)
		if err != nil {
			return fmt.Errorf("library reference for job %d: %w", i, err)
		}
		cl, err := res.Clusters()
		if err != nil {
			return err
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		w.jobs[i] = serverJob{class: kind.class, body: body, clusters: cl,
			asked: res.NumCrowdsourced, rounds: rounds(spec, res), f1: c.f1(cl)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for range serverPass {
		if _, err := w.op(nil); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	w.next = 0
	return w, nil
}

// libraryRun runs a job spec directly through the library, wired the way
// the server wires a job, with the simulated crowd in FIFO order standing
// in for the server's scheduler.
func libraryRun(spec *server.JobSpec) (*crowdjoin.JoinResult, error) {
	a := make([]string, len(spec.Records))
	var entity []string
	for i, r := range spec.Records {
		a[i] = r.Text
		entity = append(entity, r.Entity)
	}
	b := make([]string, len(spec.RecordsB))
	for i, r := range spec.RecordsB {
		b[i] = r.Text
		entity = append(entity, r.Entity)
	}
	crowd := crowdjoin.OracleFunc(func(p crowdjoin.Pair) crowdjoin.Label {
		if entity[p.A] == entity[p.B] {
			return crowdjoin.Matching
		}
		return crowdjoin.NonMatching
	})
	conc := max(spec.Concurrency, 1)
	opts := []crowdjoin.JoinOption{crowdjoin.WithMatcher(crowdjoin.Matcher{Threshold: threshold}), crowdjoin.WithConcurrency(conc)}
	if len(b) > 0 {
		opts = append(opts, crowdjoin.WithTextsAcross(a, b))
	} else {
		opts = append(opts, crowdjoin.WithTexts(a))
	}
	if spec.Accept != 0 || spec.Reject != 0 {
		opts = append(opts, crowdjoin.WithTriage(spec.Accept, spec.Reject))
	}
	if spec.Router == server.RouterBalanced {
		opts = append(opts, crowdjoin.WithRouter(crowdjoin.BalancedRouter))
	}
	switch spec.Strategy {
	case server.StrategySequential:
		opts = append(opts, crowdjoin.WithStrategy(crowdjoin.SequentialStrategy), crowdjoin.WithOracle(crowd))
	case server.StrategyParallel:
		opts = append(opts, crowdjoin.WithStrategy(crowdjoin.ParallelStrategy), crowdjoin.WithOracle(crowd))
	case server.StrategyOneToOne:
		opts = append(opts, crowdjoin.WithStrategy(crowdjoin.OneToOneStrategy), crowdjoin.WithOracle(crowd))
	default:
		opts = append(opts, crowdjoin.WithStrategy(crowdjoin.PlatformStrategy),
			crowdjoin.WithPlatform(crowdjoin.NewSimulatedCrowd(crowd, crowdjoin.SelectFIFO, nil)),
			crowdjoin.WithInstantDecisions(spec.Instant), crowdjoin.WithIncrementalPlatform(true, true))
	}
	j, err := crowdjoin.NewJoin(opts...)
	if err != nil {
		return nil, err
	}
	return j.Run(context.Background())
}

// rounds counts a reference run's crowd round trips: parallel iterations,
// platform publishes, or questions for the one-at-a-time strategies.
func rounds(spec *server.JobSpec, res *crowdjoin.JoinResult) int {
	switch spec.Strategy {
	case server.StrategyParallel:
		return len(res.RoundSizes)
	case server.StrategySequential, server.StrategyOneToOne:
		return res.NumCrowdsourced
	default:
		return len(res.PublishSizes)
	}
}

// startGeneration starts a server on a fresh data directory behind a
// loopback listener.
func (w *serverMixed) startGeneration() (*generation, error) {
	w.gens++
	g := &generation{dir: filepath.Join(w.dir, fmt.Sprintf("server%d", w.gens)), serve: make(chan error, 1)}
	srv, err := server.New(server.Config{DataDir: g.dir, Workers: 2, Latency: 0})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	g.srv, g.hs, g.base = srv, &http.Server{Handler: srv}, "http://"+ln.Addr().String()
	go func() { g.serve <- g.hs.Serve(ln) }()
	return g, nil
}

// stop shuts a generation down and deletes its data.
func (g *generation) stop() error {
	err := g.hs.Close()
	if serr := <-g.serve; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := g.srv.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(g.dir); err == nil {
		err = rerr
	}
	return err
}

// acquire picks the op index and the generation that serves it, rotating
// to a fresh generation every rotateEvery jobs. A retired generation is
// stopped by whichever of acquire and release sees it idle first.
func (w *serverMixed) acquire() (int64, *generation, error) {
	w.mu.Lock()
	var idle *generation
	if w.cur == nil || w.cur.submitted >= rotateEvery {
		if w.cur != nil {
			w.cur.retired = true
			if w.cur.inflight == 0 {
				idle = w.cur
			}
		}
		g, err := w.startGeneration()
		if err != nil {
			w.mu.Unlock()
			return 0, nil, err
		}
		w.cur = g
	}
	op := w.next
	w.next++
	g := w.cur
	g.submitted++
	g.inflight++
	w.mu.Unlock()
	if idle != nil {
		if err := idle.stop(); err != nil {
			w.release(g)
			return 0, nil, err
		}
	}
	return op, g, nil
}

// release ends an op on g and stops g once it is retired and idle.
func (w *serverMixed) release(g *generation) error {
	w.mu.Lock()
	g.inflight--
	idle := g.retired && g.inflight == 0
	w.mu.Unlock()
	if idle {
		return g.stop()
	}
	return nil
}

// resultPayload is the part of GET /jobs/{id}/result the check reads.
type resultPayload struct {
	State        string    `json:"state"`
	Crowdsourced int       `json:"crowdsourced"`
	Clusters     [][]int32 `json:"clusters"`
}

func (w *serverMixed) op(tr *tracer) (time.Duration, error) {
	op, g, err := w.acquire()
	if err != nil {
		return 0, err
	}
	job := &w.jobs[op%int64(len(w.jobs))]
	d, res, err := w.run(g, job, tr, op)
	if rerr := w.release(g); err == nil {
		err = rerr
	}
	if err != nil {
		return d, err
	}
	if res.State != server.StateDone || res.Crowdsourced != job.asked || !sameClusters(res.Clusters, job.clusters) {
		return d, fmt.Errorf("server-mixed op %d: state %s, %d questions (library %d), clusters equal: %v",
			op, res.State, res.Crowdsourced, job.asked, sameClusters(res.Clusters, job.clusters))
	}
	return d, nil
}

// run is one op: POST /jobs, follow /jobs/{id}/events to the terminal
// state, GET /jobs/{id}/result.
func (w *serverMixed) run(g *generation, job *serverJob, tr *tracer, op int64) (time.Duration, *resultPayload, error) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	t0 := time.Now()
	root := tr.begin("op", op, -1)
	defer tr.end(root)

	s := tr.begin("submit", op, root)
	var st server.JobStatus
	_, err := w.call(ctx, "POST", g.base+"/jobs", job.body, http.StatusCreated, &st)
	tr.end(s)
	if err != nil {
		return time.Since(t0), nil, err
	}
	s = tr.begin("events", op, root)
	fl, err := followJob(ctx, w.client, g.base, st.ID)
	tr.end(s)
	if err != nil {
		return time.Since(t0), nil, err
	}
	s = tr.begin("result", op, root)
	var res resultPayload
	n, err := w.call(ctx, "GET", g.base+"/jobs/"+st.ID+"/result", nil, http.StatusOK, &res)
	tr.end(s)
	d := time.Since(t0)
	if err != nil {
		return d, nil, err
	}
	if tr != nil {
		tr.sample(job.class, d)
		tr.add("server.first_event_ms", ms(fl.firstEvent))
		tr.add("server.sse_events", float64(fl.events))
		tr.add("server.sse_reconnects", float64(fl.reconnects))
		tr.add("server.result_bytes", float64(n))
		tr.add("server.store_bytes", float64(dirSize(filepath.Join(g.dir, "jobs", st.ID))))
	}
	return d, &res, nil
}

// call performs one JSON request, decodes the response into out, and
// returns the response body's size.
func (w *serverMixed) call(ctx context.Context, method, url string, body []byte, want int, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != want {
		return 0, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return len(data), json.Unmarshal(data, out)
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func (w *serverMixed) counts() countMetrics {
	return meanCounts(w.jobs, func(j *serverJob) countMetrics {
		return countMetrics{float64(j.asked), float64(j.rounds), j.f1}
	})
}

// close stops the current generation; with no op in flight, every
// retired one is already stopped.
func (w *serverMixed) close() error {
	w.mu.Lock()
	g := w.cur
	w.cur = nil
	w.mu.Unlock()
	var err error
	if g != nil {
		err = g.stop()
	}
	w.client.CloseIdleConnections()
	return err
}
