package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"crowdjoin"
)

// Config configures a Server.
type Config struct {
	// DataDir is the durable root: every job keeps its spec, journal, and
	// terminal result under <DataDir>/jobs/<id>. Required.
	DataDir string
	// Workers is the simulated crowd's capacity — how many questions are
	// answered concurrently across all jobs (default 8).
	Workers int
	// Latency is the simulated time a crowd worker takes per question.
	Latency time.Duration
	// DefaultLimits applies to tenants without an entry in TenantLimits.
	DefaultLimits TenantLimits
	// TenantLimits overrides limits per tenant id.
	TenantLimits map[string]TenantLimits
	// WrapOracle, when set, wraps every job's crowd oracle (after journal
	// filtering, before the scheduler) — the hook tests use to inject
	// latency or assert that no question is ever asked twice.
	WrapOracle func(jobID string, o Oracle) Oracle
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

// Oracle re-exports the library's oracle for Config.WrapOracle.
type Oracle = crowdjoin.Oracle

// Server is the crowdjoind join service: an http.Handler plus the job
// table, the shared cross-job scheduler, the tenant accounts, and the
// durable store. Create with New (which also resumes every job the
// previous process left in flight) and shut down with Close.
type Server struct {
	cfg     Config
	store   *store
	sched   *scheduler
	accts   *accounts
	mux     *http.ServeMux
	baseCtx context.Context
	// stop cancels baseCtx with errShutdown; every job context derives
	// from baseCtx, so Close winds all runners down through the same
	// cancellation path a single job cancel uses.
	stop context.CancelCauseFunc
	now  func() time.Time

	mu     sync.Mutex
	jobs   map[string]*job
	closed bool

	wg sync.WaitGroup // job runner goroutines
}

// New builds a Server over cfg.DataDir and resumes every stored job that
// has no terminal marker: their runners start immediately, their journals
// replay every answer already bought, and the crowd is consulted only for
// what was genuinely unanswered at the crash.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("server: Config.DataDir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	st, err := newStore(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	//crowdjoin:ctxbackground the server owns its lifetime; baseCtx is cancelled by Close, not a caller
	baseCtx, stop := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:     cfg,
		store:   st,
		sched:   newScheduler(cfg.Workers, cfg.Latency),
		accts:   newAccounts(cfg.DefaultLimits, cfg.TenantLimits),
		mux:     http.NewServeMux(),
		baseCtx: baseCtx,
		stop:    stop,
		now:     time.Now,
		jobs:    make(map[string]*job),
	}
	s.routes()
	if err := s.resumeStored(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// resumeStored rehydrates the job table from the store.
func (s *Server) resumeStored() error {
	stored, err := s.store.scan()
	if err != nil {
		return err
	}
	for _, sj := range stored {
		jb := newJob(sj.ID, sj.Spec, s)
		if sj.Terminal != nil {
			// Finished before the restart: GET /result serves the stored
			// body, and only the clusters are kept, for ?format=text.
			clusters, err := s.store.readClusters(sj.ID)
			if err != nil {
				return fmt.Errorf("server: job %s: %w", sj.ID, err)
			}
			jb.settle(sj.Terminal.State, sj.Terminal.Error, clusters, nil)
			jb.restoreTexts(sj.Batches)
			close(jb.done)
			s.jobs[sj.ID] = jb
			continue
		}
		// In flight at the crash: restart it. The admission limit does not
		// reapply — the job was admitted before.
		s.accts.adopt(sj.Spec.Tenant)
		s.jobs[sj.ID] = jb
		s.wg.Add(1)
		s.cfg.Logf("resuming job %s (tenant %s)", sj.ID, sj.Spec.Tenant)
		go jb.run(sj.Batches)
	}
	return nil
}

// submit admits and starts a new job.
func (s *Server) submit(spec *JobSpec) (*job, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("server: shutting down")
	}
	s.mu.Unlock()
	if err := s.accts.admit(spec.Tenant); err != nil {
		return nil, err
	}
	id := newJobID()
	if err := s.store.createJob(id, spec); err != nil {
		s.accts.release(spec.Tenant)
		return nil, err
	}
	jb := newJob(id, spec, s)
	s.mu.Lock()
	s.jobs[id] = jb
	s.mu.Unlock()
	s.wg.Add(1)
	go jb.run(nil)
	return jb, nil
}

// job looks a job up by id.
func (s *Server) job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	return jb, ok
}

// jobList snapshots all jobs, newest first by creation time.
func (s *Server) jobList() []JobStatus {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, jb := range s.jobs {
		jobs = append(jobs, jb)
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, jb := range jobs {
		out[i] = jb.status()
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.After(out[j].Created)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close shuts the server down: new submissions are refused, every running
// job's context is cancelled with the shutdown cause (so runners stop
// without persisting a terminal state — the next start resumes them), and
// the crowd workers drain their in-flight questions.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.stop(errShutdown)
	s.wg.Wait()
	s.sched.close()
	return nil
}

// logf logs through the configured sink.
func (s *Server) logf(format string, args ...any) { s.cfg.Logf(format, args...) }

// newJobID returns a fresh random job id ("j-" + 12 hex digits).
func newJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand does not fail on supported platforms
	}
	return "j-" + hex.EncodeToString(b[:])
}
