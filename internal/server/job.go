package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"crowdjoin"
)

// Job states (JobStatus.State).
const (
	StateRunning   = "running"
	StateDone      = "done"
	StateCancelled = "cancelled"
	StateFailed    = "failed"
)

// Causes a job's context is cancelled with; finish branches on
// context.Cause to tell a user cancel from a shutdown from a blown budget.
var (
	errCancelled = errors.New("server: job cancelled by request")
	errShutdown  = errors.New("server: shutting down")
)

// JobStatus is the live snapshot served by GET /jobs/{id}: state plus the
// labeling counters as they grow. Crowdsourced includes journal replays
// (the driver cannot tell them apart); Replayed reports them separately
// once a run completes.
type JobStatus struct {
	ID        string    `json:"id"`
	Tenant    string    `json:"tenant"`
	State     string    `json:"state"`
	Error     string    `json:"error,omitempty"`
	Strategy  string    `json:"strategy"`
	Streaming bool      `json:"streaming,omitempty"`
	Created   time.Time `json:"created"`

	Records           int `json:"records"`
	Crowdsourced      int `json:"crowdsourced"`
	Deduced           int `json:"deduced"`
	Triaged           int `json:"triaged,omitempty"`
	Guessed           int `json:"guessed,omitempty"`
	ConstraintDeduced int `json:"constraint_deduced,omitempty"`
	Replayed          int `json:"replayed,omitempty"`
	Conflicts         int `json:"conflicts,omitempty"`
	Rounds            int `json:"rounds,omitempty"`
	Appends           int `json:"appends,omitempty"`
}

// ResultPayload is the final outcome served by GET /jobs/{id}/result.
// A done or cancelled job encodes it once (appendJSON, encode.go), stores
// those bytes as result.json and serves that file from then on; only a
// budget-exhausted job, which is not persisted, keeps its payload in
// memory. Partial marks results from cancelled jobs: every label present
// is consistent and fully deduced, but some pairs may be unlabeled.
type ResultPayload struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Error   string `json:"error,omitempty"`
	Partial bool   `json:"partial,omitempty"`

	NumObjects        int `json:"num_objects"`
	NumPairs          int `json:"num_pairs"`
	Crowdsourced      int `json:"crowdsourced"`
	Deduced           int `json:"deduced"`
	TriageAccepted    int `json:"triage_accepted,omitempty"`
	TriageRejected    int `json:"triage_rejected,omitempty"`
	Guessed           int `json:"guessed,omitempty"`
	ConstraintDeduced int `json:"constraint_deduced,omitempty"`
	Replayed          int `json:"replayed,omitempty"`
	Conflicts         int `json:"conflicts,omitempty"`
	Components        int `json:"components,omitempty"`

	// Clusters lists the entity clusters (object ids, ascending; clusters
	// ordered by smallest member), singletons included.
	Clusters [][]int32 `json:"clusters"`
	// Pairs is the labeled candidate set.
	Pairs []PairResult `json:"pairs"`
}

// PairResult is one labeled candidate pair of the result payload.
type PairResult struct {
	A            int32   `json:"a"`
	B            int32   `json:"b"`
	Likelihood   float64 `json:"likelihood"`
	Label        string  `json:"label"`
	Crowdsourced bool    `json:"crowdsourced,omitempty"`
	Triaged      bool    `json:"triaged,omitempty"`
	Guessed      bool    `json:"guessed,omitempty"`
}

// job is one join session owned by the server: the library Join plus the
// server-side state around it (status, events, streaming queue, terminal
// persistence).
type job struct {
	id      string
	spec    *JobSpec
	srv     *Server
	ctx     context.Context
	cancel  context.CancelCauseFunc
	hub     *eventHub
	ents    *entities
	created time.Time
	done    chan struct{} // closed when the runner exits

	mu     sync.Mutex
	state  string // guarded by mu
	errMsg string // guarded by mu
	// texts is the full record corpus (source A then source B, then
	// appended batches) — cluster membership resolves through it.
	texts []string  // guarded by mu
	stats JobStatus // guarded by mu; only the counter fields are kept current
	// Once the job has stopped with a result: clusters is what
	// ?format=text renders, and unsaved the payload of a budget-exhausted
	// job, which is never persisted. A done or cancelled job keeps no
	// payload: GET /result serves its result.json.
	clusters [][]int32      // guarded by mu
	unsaved  *ResultPayload // guarded by mu
	// pairSlab is the unused tail of the block the next pair event's
	// EventPair is carved from: one allocation per pairSlabSize events.
	pairSlab []EventPair // guarded by mu
	// streaming intake: handlers append acknowledged batches here and
	// kick the runner; finalSeen flips once a final batch is accepted.
	pending   []batchLine // guarded by mu
	finalSeen bool        // guarded by mu
	kick      chan struct{}
	// batchMu serializes persist+queue per batch, so the batch log's order
	// is exactly the order the session integrated — the order a resumed
	// session must replay to satisfy the journal's arrival entries.
	batchMu sync.Mutex
}

func newJob(id string, spec *JobSpec, srv *Server) *job {
	ctx, cancel := context.WithCancelCause(srv.baseCtx)
	a, b := spec.texts()
	jb := &job{
		id:      id,
		spec:    spec,
		srv:     srv,
		ctx:     ctx,
		cancel:  cancel,
		hub:     newEventHub(),
		ents:    newEntities(spec),
		created: srv.now(),
		done:    make(chan struct{}),
		state:   StateRunning,
		texts:   append(a, b...),
		kick:    make(chan struct{}, 1),
	}
	return jb
}

// status snapshots the job for GET /jobs/{id}.
func (jb *job) status() JobStatus {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	s := jb.stats
	s.ID = jb.id
	s.Tenant = jb.spec.Tenant
	s.State = jb.state
	s.Error = jb.errMsg
	s.Strategy = jb.spec.Strategy
	s.Streaming = jb.spec.Streaming
	s.Created = jb.created
	s.Records = len(jb.texts)
	return s
}

// onEvent is the session's progress hook: it keeps the live counters and
// fans the event out to SSE subscribers. It runs on the labeling driver's
// goroutines, so it must never block (hub.publish only stores the event
// and signals subscribers, who read at their own pace).
func (jb *job) onEvent(e crowdjoin.Event) {
	ev := JobEvent{
		Kind:      e.Kind.String(),
		Round:     e.Round,
		Size:      e.Size,
		Component: e.Component,
		Absorbed:  e.Absorbed,
	}
	jb.mu.Lock()
	switch e.Kind {
	case crowdjoin.EventPairCrowdsourced:
		jb.stats.Crowdsourced++
	case crowdjoin.EventPairDeduced:
		jb.stats.Deduced++
	case crowdjoin.EventPairTriaged:
		jb.stats.Triaged++
	case crowdjoin.EventPairGuessed:
		jb.stats.Guessed++
	case crowdjoin.EventPairConstraintDeduced:
		jb.stats.ConstraintDeduced++
	case crowdjoin.EventRoundPublished:
		jb.stats.Rounds++
	case crowdjoin.EventConflictOverridden:
		jb.stats.Conflicts++
	case crowdjoin.EventRecordAppended:
		jb.stats.Appends++
	}
	switch e.Kind {
	case crowdjoin.EventPairCrowdsourced, crowdjoin.EventPairDeduced,
		crowdjoin.EventPairTriaged, crowdjoin.EventPairGuessed,
		crowdjoin.EventPairConstraintDeduced, crowdjoin.EventConflictOverridden:
		if len(jb.pairSlab) == 0 {
			jb.pairSlab = make([]EventPair, pairSlabSize)
		}
		ev.Pair = &jb.pairSlab[0]
		jb.pairSlab = jb.pairSlab[1:]
		*ev.Pair = EventPair{A: e.Pair.A, B: e.Pair.B}
		ev.Label = e.Label.String()
	}
	jb.mu.Unlock()
	jb.hub.publish(ev)
}

// pairSlabSize is how many pair events share one EventPair allocation. A
// block stays alive while the hub's history still holds one of its events.
const pairSlabSize = 256

// emitState publishes a lifecycle event.
func (jb *job) emitState(state, errMsg string) {
	jb.hub.publish(JobEvent{Kind: "state", State: state, Error: errMsg})
}

// buildJoin assembles the library session for this job. The wiring order
// matters: the Join wraps whatever crowd backend it gets in the journal
// layer, so replayed answers are served before they reach the jobPlatform
// or the accounting oracle — a resumed job spends nothing on what it
// already bought.
func (jb *job) buildJoin(journal io.ReadWriter) (*crowdjoin.Join, error) {
	crowd := jb.ents.oracle()
	if wrap := jb.srv.cfg.WrapOracle; wrap != nil {
		crowd = wrap(jb.id, crowd)
	}
	reserve := func(n int) error {
		return jb.srv.accts.reserve(jb.ctx, jb.spec.Tenant, n)
	}
	opts := []crowdjoin.JoinOption{
		crowdjoin.WithMatcher(crowdjoin.Matcher{Threshold: jb.spec.Threshold, UseIDF: jb.spec.IDF}),
		crowdjoin.WithStrategy(jb.spec.strategy()),
		crowdjoin.WithConcurrency(jb.spec.Concurrency),
		crowdjoin.WithProgress(jb.onEvent),
		crowdjoin.WithJournal(journal),
	}
	a, b := jb.spec.texts()
	if jb.spec.bipartite() {
		opts = append(opts, crowdjoin.WithTextsAcross(a, b))
	} else {
		opts = append(opts, crowdjoin.WithTexts(a))
	}
	if jb.spec.Order == "given" {
		opts = append(opts, crowdjoin.WithOrder(crowdjoin.OrderAsGiven))
	}
	if jb.spec.Accept != 0 || jb.spec.Reject != 0 {
		opts = append(opts, crowdjoin.WithTriage(jb.spec.Accept, jb.spec.Reject))
	}
	if jb.spec.Router == RouterBalanced {
		opts = append(opts, crowdjoin.WithRouter(crowdjoin.BalancedRouter))
	}
	if jb.spec.Strategy == StrategyPlatform {
		jp := newJobPlatform(jb.ctx, jb.srv.sched, crowd, reserve, jb.cancel)
		opts = append(opts,
			crowdjoin.WithPlatform(jp),
			crowdjoin.WithInstantDecisions(jb.spec.Instant),
		)
	} else {
		opts = append(opts, crowdjoin.WithOracle(accountingOracle{jb: jb, reserve: reserve, inner: crowd}))
	}
	return crowdjoin.NewJoin(opts...)
}

// accountingOracle charges the tenant before each crowd question on the
// oracle-backed strategies. When the charge fails (budget exhausted, rate
// wait cancelled) it cancels the job and returns Unlabeled; the patched
// drivers treat an invalid answer under a cancelled context as the
// cancellation it is and return the partial result.
type accountingOracle struct {
	jb      *job
	reserve func(n int) error
	inner   crowdjoin.Oracle
}

func (o accountingOracle) Label(p crowdjoin.Pair) crowdjoin.Label {
	if err := o.reserve(1); err != nil {
		o.jb.cancel(err)
		return crowdjoin.Unlabeled
	}
	return o.inner.Label(p)
}

// run is the job's goroutine: build the session, drive Run (and, for
// streaming jobs, the append/re-run loop), and settle the terminal state.
// resumeBatches carries a resumed streaming job's persisted batch lines.
func (jb *job) run(resumeBatches []batchLine) {
	defer close(jb.done)
	defer jb.srv.wg.Done()
	defer jb.srv.accts.release(jb.spec.Tenant)
	jb.emitState(StateRunning, "")

	journal, err := jb.srv.store.openJournal(jb.id)
	if err != nil {
		jb.fail(err)
		return
	}
	defer journal.Close()

	j, err := jb.buildJoin(journal)
	if err != nil {
		jb.fail(err)
		return
	}

	if !jb.spec.Streaming {
		res, err := j.Run(jb.ctx)
		jb.noteRun(res)
		jb.finish(res, err)
		return
	}

	// Streaming: integrate everything already persisted (on resume the
	// journal's arrival entries validate against exactly this sequence),
	// then alternate Run with batch intake until a final batch lands.
	final, err := jb.integrate(j, resumeBatches)
	if err != nil {
		jb.fail(err)
		return
	}
	for {
		res, err := j.Run(jb.ctx)
		jb.noteRun(res)
		if err != nil {
			jb.finish(res, err)
			return
		}
		if final {
			jb.finish(res, nil)
			return
		}
		select {
		case <-jb.ctx.Done():
			// Cancelled while waiting for batches: res covers everything
			// appended so far, but the stream never finished — surface it
			// with the cancellation cause.
			jb.finish(res, context.Cause(jb.ctx))
			return
		case <-jb.kick:
		}
		jb.mu.Lock()
		bs := jb.pending
		jb.pending = nil
		jb.mu.Unlock()
		if final, err = jb.integrate(j, bs); err != nil {
			jb.fail(err)
			return
		}
	}
}

// integrate appends batch lines into the session (truth table first, so
// the crowd can answer about the new records the moment they publish).
func (jb *job) integrate(j *crowdjoin.Join, bs []batchLine) (final bool, err error) {
	for _, b := range bs {
		if len(b.Records) > 0 {
			jb.ents.extend(b.Records)
			texts := make([]string, len(b.Records))
			for i, r := range b.Records {
				texts[i] = r.Text
			}
			jb.mu.Lock()
			jb.texts = append(jb.texts, texts...)
			jb.mu.Unlock()
			if _, err := j.Append(texts...); err != nil {
				return false, err
			}
		}
		if b.Final {
			final = true
		}
	}
	// A resumed job whose final batch was already persisted must still
	// honor it even when this call saw only old lines.
	jb.mu.Lock()
	final = final || (jb.finalSeen && len(jb.pending) == 0)
	jb.mu.Unlock()
	return final, nil
}

// acceptBatch is the handler-side intake for POST /jobs/{id}/batches: the
// line is already persisted; queue it for the runner.
func (jb *job) acceptBatch(b batchLine) error {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if jb.state != StateRunning {
		return fmt.Errorf("job is %s", jb.state)
	}
	if jb.finalSeen {
		return errors.New("stream already finalized")
	}
	jb.pending = append(jb.pending, b)
	if b.Final {
		jb.finalSeen = true
	}
	select {
	case jb.kick <- struct{}{}:
	default:
	}
	return nil
}

// noteRun folds one Run's result into the counters that the progress
// events cannot carry.
func (jb *job) noteRun(res *crowdjoin.JoinResult) {
	if res == nil {
		return
	}
	jb.srv.accts.noteReplayed(jb.spec.Tenant, res.Replayed)
	jb.mu.Lock()
	jb.stats.Replayed += res.Replayed
	jb.mu.Unlock()
	if res.Replayed > 0 {
		jb.hub.publish(JobEvent{Kind: "replay", Size: res.Replayed})
	}
}

// finish settles the job's terminal state from Run's outcome. Only done
// and cancelled are persisted, their payload encoded once into the bytes
// result.json stores and GET /result serves: a job stopped by shutdown or
// an internal error leaves no terminal marker, so the next start resumes
// it (journal replays make the retry free).
func (jb *job) finish(res *crowdjoin.JoinResult, err error) {
	var ts terminalState
	cause := context.Cause(jb.ctx)
	switch {
	case err == nil:
		ts = terminalState{State: StateDone}
	case jb.ctx.Err() != nil && errors.Is(cause, errCancelled):
		ts = terminalState{State: StateCancelled, Error: cause.Error()}
	case jb.ctx.Err() != nil && errors.Is(cause, ErrBudgetExhausted):
		// Not persisted: the journal holds everything bought, so a restart
		// under a raised budget resumes the job for free.
		p := jb.payload(res, StateFailed, cause.Error())
		jb.settle(StateFailed, cause.Error(), p.Clusters, p)
		return
	case jb.ctx.Err() != nil && errors.Is(cause, errShutdown):
		jb.settle(StateFailed, errShutdown.Error(), nil, nil)
		return
	default:
		jb.fail(err)
		return
	}
	p := jb.payload(res, ts.State, ts.Error)
	if werr := jb.srv.store.writeTerminal(jb.id, ts, p.encode()); werr != nil {
		jb.fail(fmt.Errorf("persisting result: %w", werr))
		return
	}
	jb.settle(ts.State, ts.Error, p.Clusters, nil)
}

// fail marks an in-memory failure; nothing is persisted, so the job is
// retried on the next server start.
func (jb *job) fail(err error) {
	jb.srv.logf("job %s failed: %v", jb.id, err)
	jb.settle(StateFailed, err.Error(), nil, nil)
}

// settle records the terminal state with what GET /result needs beyond
// result.json (see job.clusters), and closes the event stream.
func (jb *job) settle(state, errMsg string, clusters [][]int32, unsaved *ResultPayload) {
	jb.mu.Lock()
	jb.state = state
	jb.errMsg = errMsg
	jb.clusters = clusters
	jb.unsaved = unsaved
	jb.mu.Unlock()
	jb.emitState(state, errMsg)
	jb.hub.close()
}

// payload builds the result payload from a (possibly partial, possibly
// nil) JoinResult.
func (jb *job) payload(res *crowdjoin.JoinResult, state, errMsg string) *ResultPayload {
	p := &ResultPayload{ID: jb.id, State: state, Error: errMsg}
	if res == nil {
		return p
	}
	p.Partial = res.Partial || state == StateCancelled || state == StateFailed
	p.NumObjects = res.NumObjects
	p.NumPairs = len(res.Order)
	p.Crowdsourced = res.NumCrowdsourced
	p.Deduced = res.NumDeduced
	p.TriageAccepted = res.TriageAccepted
	p.TriageRejected = res.TriageRejected
	p.Guessed = res.NumGuessed
	p.ConstraintDeduced = res.NumConstraintDeduced
	p.Conflicts = res.Conflicts
	p.Components = res.Components
	jb.mu.Lock()
	p.Replayed = jb.stats.Replayed
	jb.mu.Unlock()
	clusters, err := res.Clusters()
	if err == nil {
		p.Clusters = clusters
	}
	p.Pairs = make([]PairResult, len(res.Order))
	for i, q := range res.Order {
		pr := PairResult{A: q.A, B: q.B, Likelihood: q.Likelihood, Label: res.Labels[q.ID].String()}
		if res.Crowdsourced != nil {
			pr.Crowdsourced = res.Crowdsourced[q.ID]
		}
		if res.Triaged != nil {
			pr.Triaged = res.Triaged[q.ID]
		}
		if res.Guessed != nil {
			pr.Guessed = res.Guessed[q.ID]
		}
		p.Pairs[i] = pr
	}
	return p
}

// restoreTexts rebuilds a resumed terminal streaming job's full corpus
// from its persisted batches, so ?format=text rendering still works.
func (jb *job) restoreTexts(bs []batchLine) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	for _, b := range bs {
		for _, r := range b.Records {
			jb.texts = append(jb.texts, r.Text)
		}
	}
}

// clustersText renders the result's multi-member clusters in
// cmd/crowdjoin's output format (member texts, "---" separator), for
// GET /jobs/{id}/result?format=text — shell clients diff this against the
// CLI without JSON tooling.
func (jb *job) clustersText(clusters [][]int32) string {
	jb.mu.Lock()
	texts := jb.texts
	jb.mu.Unlock()
	var sb strings.Builder
	for _, c := range clusters {
		if len(c) < 2 {
			continue
		}
		for _, o := range c {
			if int(o) < len(texts) {
				sb.WriteString(texts[o])
			}
			sb.WriteByte('\n')
		}
		sb.WriteString("---\n")
	}
	return sb.String()
}
