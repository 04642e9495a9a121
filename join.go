package crowdjoin

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"

	"crowdjoin/internal/core"
)

// ErrRunInProgress is returned by Join.Run when another Run is still
// executing on the same session. Two concurrent Runs would race on the
// journal's read side and double-consult the crowd; long-lived callers (a
// join server running one goroutine per job) depend on this being a typed
// error rather than silent corruption. Sequential re-Runs remain supported
// — streaming sessions Run after every Append.
var ErrRunInProgress = errors.New("crowdjoin: Run already in progress on this session")

// Progress events. A Join configured with WithProgress receives one Event
// per labeling step, synchronously from the labeling loop.
type (
	// Event is one progress notification (pair labeled, pair deduced, round
	// published, conflict overridden, ...).
	Event = core.Event
	// EventKind identifies what an Event reports.
	EventKind = core.EventKind
)

// Event kinds.
const (
	EventPairCrowdsourced      = core.EventPairCrowdsourced
	EventPairDeduced           = core.EventPairDeduced
	EventPairGuessed           = core.EventPairGuessed
	EventPairConstraintDeduced = core.EventPairConstraintDeduced
	EventRoundPublished        = core.EventRoundPublished
	EventConflictOverridden    = core.EventConflictOverridden
	EventRecordAppended        = core.EventRecordAppended
	EventComponentsMerged      = core.EventComponentsMerged
	EventPairTriaged           = core.EventPairTriaged
)

// Ordering decides the labeling order of a candidate set — itself a
// pluggable strategy (cf. the expected optimal labeling order problem). It
// must return a permutation of its input (same pairs, same IDs) and must
// not modify the input slice.
type Ordering func([]Pair) []Pair

// Built-in orderings.
var (
	// OrderExpected sorts by likelihood descending — the paper's practical
	// heuristic and the session default.
	OrderExpected Ordering = ExpectedOrder
	// OrderAsGiven labels pairs exactly in the order supplied.
	OrderAsGiven Ordering = func(ps []Pair) []Pair { return ps }
)

// OrderRandom shuffles the pairs uniformly using rng.
func OrderRandom(rng *rand.Rand) Ordering {
	return func(ps []Pair) []Pair { return RandomOrder(ps, rng) }
}

// strategyKind enumerates the labeling drivers a Join can run.
type strategyKind uint8

const (
	strategySequential strategyKind = iota
	strategyParallel
	strategyPlatform
	strategyOneToOne
	strategyBudget
)

// Strategy selects which labeling driver a Join runs. Use the exported
// values (SequentialStrategy, ParallelStrategy, PlatformStrategy,
// OneToOneStrategy) or the BudgetStrategy constructor.
type Strategy struct {
	kind           strategyKind
	budget         int
	guessThreshold float64
}

// Built-in strategies.
var (
	// SequentialStrategy asks one pair at a time (minimal crowd cost,
	// maximal latency); requires an oracle.
	SequentialStrategy = Strategy{kind: strategySequential}
	// ParallelStrategy asks whole rounds of mandatory pairs at once;
	// requires a batch oracle (or an oracle, asked pair by pair).
	ParallelStrategy = Strategy{kind: strategyParallel}
	// PlatformStrategy streams work through a crowdsourcing Platform;
	// requires WithPlatform.
	PlatformStrategy = Strategy{kind: strategyPlatform}
	// OneToOneStrategy is the sequential labeler with the one-to-one
	// constraint for joins between duplicate-free sources.
	OneToOneStrategy = Strategy{kind: strategyOneToOne}
)

// BudgetStrategy crowdsources at most budget pairs sequentially; once the
// budget is spent, undeducible pairs fall back to the machine guess
// (likelihood ≥ guessThreshold → matching).
func BudgetStrategy(budget int, guessThreshold float64) Strategy {
	return Strategy{kind: strategyBudget, budget: budget, guessThreshold: guessThreshold}
}

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s.kind {
	case strategySequential:
		return "sequential"
	case strategyParallel:
		return "parallel"
	case strategyPlatform:
		return "platform"
	case strategyOneToOne:
		return "one-to-one"
	case strategyBudget:
		return fmt.Sprintf("budget(%d,%g)", s.budget, s.guessThreshold)
	default:
		return "Strategy(?)"
	}
}

// Join is one crowdsourced-join session: candidate generation, labeling
// order, transitive labeling, and the crowd backend behind a single
// Run(ctx) entry point. Configure it with functional options:
//
//	j, err := crowdjoin.NewJoin(
//	    crowdjoin.WithTexts(texts),
//	    crowdjoin.WithMatcher(crowdjoin.Matcher{Threshold: 0.3}),
//	    crowdjoin.WithStrategy(crowdjoin.ParallelStrategy),
//	    crowdjoin.WithOracle(crowd),
//	)
//	res, err := j.Run(ctx)
//
// A Join may be Run more than once, but not concurrently: a Run invoked
// while another Run is still executing on the same session returns
// ErrRunInProgress. Without a journal, Run holds no
// session state at all. With a journal, each Run consumes the stream's
// read side: a re-Run rewinds it when the stream is an io.Seeker (e.g. an
// *os.File) and re-reads the accumulated entries; on a non-seekable
// stream, whose entries are gone after the first read, a re-Run is
// refused rather than silently re-crowdsourcing everything.
type Join struct {
	// input: either precomputed pairs or raw texts fed to the matcher.
	numObjects int
	pairs      []Pair
	havePairs  bool
	texts      []string
	textsB     []string
	bipartite  bool
	haveTexts  bool

	matcher  Matcher
	strategy Strategy
	ordering Ordering
	oracle   Oracle
	batch    BatchOracle
	platform Platform

	instant     bool
	concurrency int

	// triage holds the similarity bands of WithTriage (zero = disabled),
	// router the shard scheduling of WithRouter, cascade the descending
	// threshold ladder of WithCascade (nil = single-threshold).
	triage  core.TriageBands
	router  Router
	cascade []float64

	progress func(Event)
	journal  io.ReadWriter
	// journalUsed marks that a Run already consumed the journal's read
	// side; a later Run must rewind it (io.Seeker) or refuse.
	journalUsed bool

	// streamMu guards stream, which exists once Append has switched the
	// session to streaming (see stream.go); candidates then come from the
	// incremental index instead of the batch matcher. It also guards mem,
	// the session-lifetime answer cache: every Run without a file journal
	// records its crowd answers here and replays them on later Runs, so a
	// session never buys the same answer twice — in particular, a streaming
	// session's finishing Run replays everything its mid-stream Runs paid
	// for, including a Run that preceded the first Append.
	streamMu sync.Mutex
	stream   *streamState
	mem      *journalState

	// running guards Run against concurrent invocation on one session (see
	// ErrRunInProgress). Append is safe concurrently with Run and is not
	// gated by it.
	running atomic.Bool

	err error // first configuration error
}

// JoinOption configures a Join.
type JoinOption func(*Join)

// setErr records the first configuration error.
func (j *Join) setErr(err error) {
	if j.err == nil {
		j.err = err
	}
}

// WithPairs supplies a precomputed candidate set over numObjects objects
// (dense IDs, see Pair.ID), bypassing the matcher. Mutually exclusive with
// WithTexts / WithTextsAcross.
func WithPairs(numObjects int, pairs []Pair) JoinOption {
	return func(j *Join) {
		if j.havePairs || j.haveTexts {
			j.setErr(errors.New("crowdjoin: multiple inputs configured (WithPairs/WithTexts/WithTextsAcross)"))
			return
		}
		j.havePairs = true
		j.numObjects = numObjects
		j.pairs = pairs
	}
}

// WithTexts supplies the records of a deduplication join as raw texts;
// candidates are generated by the session's Matcher at Run. Object i is
// texts[i]. Mutually exclusive with WithPairs / WithTextsAcross.
func WithTexts(texts []string) JoinOption {
	return func(j *Join) {
		if j.havePairs || j.haveTexts {
			j.setErr(errors.New("crowdjoin: multiple inputs configured (WithPairs/WithTexts/WithTextsAcross)"))
			return
		}
		j.haveTexts = true
		j.texts = texts
		j.numObjects = len(texts)
	}
}

// WithTextsAcross supplies the two sources of a bipartite join as raw
// texts; candidates span the sources. Objects 0..len(a)-1 are a's texts and
// len(a)..len(a)+len(b)-1 are b's. Mutually exclusive with WithPairs /
// WithTexts.
func WithTextsAcross(a, b []string) JoinOption {
	return func(j *Join) {
		if j.havePairs || j.haveTexts {
			j.setErr(errors.New("crowdjoin: multiple inputs configured (WithPairs/WithTexts/WithTextsAcross)"))
			return
		}
		j.haveTexts = true
		j.bipartite = true
		j.texts = a
		j.textsB = b
		j.numObjects = len(a) + len(b)
	}
}

// WithMatcher sets the matcher that generates candidates from texts
// (default Matcher{Threshold: 0.3}). Ignored with WithPairs.
func WithMatcher(m Matcher) JoinOption {
	return func(j *Join) { j.matcher = m }
}

// WithStrategy selects the labeling driver (default SequentialStrategy).
func WithStrategy(s Strategy) JoinOption {
	return func(j *Join) { j.strategy = s }
}

// WithOrder sets the labeling-order strategy (default OrderExpected).
func WithOrder(o Ordering) JoinOption {
	return func(j *Join) {
		if o == nil {
			j.setErr(errors.New("crowdjoin: WithOrder(nil)"))
			return
		}
		j.ordering = o
	}
}

// WithOracle sets the per-pair crowd for the sequential-family strategies.
// The parallel strategy accepts it too (pairs of a round are asked one by
// one).
func WithOracle(o Oracle) JoinOption {
	return func(j *Join) { j.oracle = o }
}

// WithBatchOracle sets the whole-round crowd for ParallelStrategy. The
// sequential-family strategies accept it too (each pair becomes a
// one-element batch).
func WithBatchOracle(o BatchOracle) JoinOption {
	return func(j *Join) { j.batch = o }
}

// WithPlatform sets the crowdsourcing backend for PlatformStrategy.
func WithPlatform(pf Platform) JoinOption {
	return func(j *Join) { j.platform = pf }
}

// WithInstantDecisions toggles the instant-decision optimization of
// PlatformStrategy: republish newly mandatory pairs after every answer
// instead of waiting for the platform to drain (default off).
func WithInstantDecisions(on bool) JoinOption {
	return func(j *Join) { j.instant = on }
}

// WithIncrementalPlatform is a no-op kept for source compatibility:
// PlatformStrategy always runs the incremental Algorithm-3 scan and the
// incremental deduction pass, which give the results of the from-scratch
// ones with less work per answer. Sessions that never set the option now
// see an answer's EventPairDeduced events in the incremental deducer's
// order (the same events, possibly reordered).
//
// Deprecated: drop the option; it has no effect.
func WithIncrementalPlatform(scan, deduce bool) JoinOption {
	return func(*Join) {}
}

// WithConcurrency shards the session by connected component of the
// candidate graph: transitive deduction never crosses components, so each
// component can run the paper's single-order algorithm independently while
// k components consult the crowd at once.
//
// k = 1 (the default) runs unsharded: the sequential, parallel, and
// one-to-one strategies run their labeling kernel over the whole order,
// and PlatformStrategy runs its one driver over a single shard. With k > 1:
//
//   - Sequential, parallel, and one-to-one strategies run k component
//     subproblems on concurrent goroutines; the configured Oracle or
//     BatchOracle must be safe for concurrent use. A component never waits
//     on another component's crowd answers, so a slow round in one cluster
//     of the data no longer gates the rest.
//   - PlatformStrategy interleaves per-component publish rounds on the one
//     platform (the driver itself stays single-threaded; the parallelism
//     is in the crowd, which sees every component's mandatory pairs
//     without cross-component round barriers). PublishSizes counts one
//     publish event per component round.
//   - Labels, crowdsourced flags, and counters are merged
//     deterministically by pair; for crowds whose answer to a pair does
//     not depend on question order, results are identical to k = 1.
//   - Progress events carry the component id in Event.Component.
//   - BudgetStrategy is rejected: its budget is a global constraint and
//     cannot be split across components without changing semantics.
func WithConcurrency(k int) JoinOption {
	return func(j *Join) {
		if k < 1 {
			j.setErr(fmt.Errorf("crowdjoin: WithConcurrency(%d): k must be at least 1", k))
			return
		}
		j.concurrency = k
	}
}

// WithProgress subscribes fn to the session's progress stream. fn is called
// synchronously from the labeling loop.
func WithProgress(fn func(Event)) JoinOption {
	return func(j *Join) { j.progress = fn }
}

// WithJournal attaches an append-only label journal: every crowd answer is
// recorded to rw as it arrives, and answers already present in rw are
// replayed through the deduction engine instead of being re-crowdsourced —
// so a restarted session resumes mid-join without paying twice. Open file
// journals with os.O_CREATE|os.O_RDWR|os.O_APPEND. If appending to the
// journal fails mid-run, the session cancels itself and Run returns the
// partial result with the write error (a join whose answers are silently
// unjournaled would be unresumable).
func WithJournal(rw io.ReadWriter) JoinOption {
	return func(j *Join) {
		if rw == nil {
			j.setErr(errors.New("crowdjoin: WithJournal(nil)"))
			return
		}
		j.journal = rw
	}
}

// NewJoin builds a join session from the given options and validates the
// configuration: exactly one input (WithPairs, WithTexts, or
// WithTextsAcross) and a crowd backend matching the strategy.
func NewJoin(opts ...JoinOption) (*Join, error) {
	j := &Join{
		strategy:    SequentialStrategy,
		ordering:    OrderExpected,
		matcher:     Matcher{Threshold: 0.3},
		concurrency: 1,
	}
	for _, o := range opts {
		o(j)
	}
	if j.err != nil {
		return nil, j.err
	}
	if !j.havePairs && !j.haveTexts {
		return nil, errors.New("crowdjoin: no input configured; use WithPairs, WithTexts, or WithTextsAcross")
	}
	// Phrased so that NaN, which fails every comparison, fails the check.
	if j.strategy.kind == strategyBudget && !(j.strategy.guessThreshold >= 0 && j.strategy.guessThreshold <= 1) {
		return nil, fmt.Errorf("crowdjoin: guess %v outside [0,1]", j.strategy.guessThreshold)
	}
	if j.concurrency > 1 && j.strategy.kind == strategyBudget {
		return nil, errors.New("crowdjoin: WithConcurrency > 1 is incompatible with BudgetStrategy (the budget is a global constraint)")
	}
	if j.triage.Enabled() && j.strategy.kind == strategyBudget {
		return nil, errors.New("crowdjoin: WithTriage is incompatible with BudgetStrategy (machine answers would consume the crowd budget)")
	}
	if j.router == BalancedRouter && (j.strategy.kind != strategyParallel || j.concurrency <= 1) {
		return nil, errors.New("crowdjoin: BalancedRouter requires ParallelStrategy with WithConcurrency > 1")
	}
	if j.cascade != nil {
		if !j.haveTexts {
			return nil, errors.New("crowdjoin: WithCascade requires WithTexts or WithTextsAcross (precomputed pairs cannot cascade)")
		}
		if j.strategy.kind == strategyBudget {
			return nil, errors.New("crowdjoin: WithCascade is incompatible with BudgetStrategy (the budget is a whole-session constraint, not per stage)")
		}
	}
	switch j.strategy.kind {
	case strategyPlatform:
		if j.platform == nil {
			return nil, errors.New("crowdjoin: PlatformStrategy requires WithPlatform")
		}
	case strategyParallel:
		if j.batch == nil && j.oracle == nil {
			return nil, errors.New("crowdjoin: ParallelStrategy requires WithBatchOracle or WithOracle")
		}
	default:
		if j.oracle == nil && j.batch == nil {
			return nil, fmt.Errorf("crowdjoin: %v strategy requires WithOracle or WithBatchOracle", j.strategy)
		}
	}
	return j, nil
}

// singleOracleFrom resolves the per-pair crowd, adapting a batch oracle
// when only that was configured (NewJoin guarantees one of the two
// exists).
func singleOracleFrom(oracle Oracle, batch BatchOracle) Oracle {
	if oracle != nil {
		return oracle
	}
	return OracleFunc(func(p Pair) Label {
		ans := batch.LabelBatch([]Pair{p})
		if len(ans) == 0 {
			return Unlabeled // rejected by the driver's answer check
		}
		return ans[0]
	})
}

// batchOracleFrom resolves the whole-round crowd, lifting a per-pair
// oracle when only that was configured.
func batchOracleFrom(oracle Oracle, batch BatchOracle) BatchOracle {
	if batch != nil {
		return batch
	}
	return core.Batched(oracle)
}

// JoinResult is the consolidated outcome of Join.Run. All per-pair slices
// are indexed by Pair.ID. Fields beyond the core set are populated only by
// the strategies that produce them.
type JoinResult struct {
	// NumObjects is the size of the object universe the join ran over.
	NumObjects int
	// Order is the labeling order the session actually used — the
	// candidate set permuted by the configured Ordering, with dense IDs.
	Order []Pair
	// Labels holds the final label of every pair. Complete runs never
	// leave a pair Unlabeled; partial (cancelled) runs may.
	Labels []Label
	// Crowdsourced marks pairs whose labels came from the crowd (including
	// answers replayed from the journal); the rest were deduced or guessed.
	Crowdsourced []bool
	// NumCrowdsourced and NumDeduced count the crowd's and the deduction
	// engine's shares of the labels.
	NumCrowdsourced int
	NumDeduced      int
	// RoundSizes[i] is the number of pairs crowdsourced in parallel
	// iteration i (ParallelStrategy).
	RoundSizes []int
	// PublishSizes[i] is the size of the i-th publish event
	// (PlatformStrategy).
	PublishSizes []int
	// Availability[k] is the platform's outstanding work right after the
	// (k+1)-th labeled pair (PlatformStrategy).
	Availability []int
	// Conflicts counts crowd answers that contradicted the transitive
	// closure of earlier answers and were overridden (parallel and
	// platform strategies, inconsistent crowds only).
	Conflicts int
	// Guessed marks pairs labeled from the machine likelihood after the
	// budget ran out (BudgetStrategy); NumGuessed counts them.
	Guessed    []bool
	NumGuessed int
	// NumConstraintDeduced counts labels forced by the one-to-one
	// constraint (OneToOneStrategy).
	NumConstraintDeduced int
	// Replayed counts crowd answers served without consulting the crowd:
	// from the journal (sessions resumed via WithJournal), or from the
	// session's in-memory answer cache (journal-less sessions re-Run, or
	// streaming sessions finishing after mid-stream Runs).
	Replayed int
	// Components is the number of connected components the candidate graph
	// split into, on component-sharded runs (WithConcurrency > 1); 0
	// otherwise. Sessions with WithTriage shard by the *thinned* graph —
	// machine-rejected edges do not connect components (see
	// core.BuildTriagedPartition) — so this counts thinned components, plus
	// one residue shard when rejected pairs bridge them.
	Components int
	// Triaged marks pairs answered by the machine similarity bands instead
	// of the crowd (WithTriage); TriageAccepted and TriageRejected count the
	// accept and reject bands' shares. Triaged pairs are excluded from
	// Crowdsourced and NumCrowdsourced. On cascade sessions the fields
	// reflect the final stage, which covers the full accumulated band.
	Triaged        []bool
	TriageAccepted int
	TriageRejected int
	// Partial is true when the run was cancelled: Labels may contain
	// Unlabeled pairs, but every label present is consistent and every
	// deduction implied by the collected answers has been applied.
	Partial bool
}

// Clusters returns the entity clusters implied by the matching labels:
// connected components over the object universe. Objects appear in
// increasing order; clusters are ordered by smallest member. Valid for
// partial results too (unlabeled pairs simply contribute no edges).
func (r *JoinResult) Clusters() ([][]int32, error) {
	return Clusters(r.NumObjects, r.Order, r.Labels)
}

// fill copies the shared result core into r.
func (r *JoinResult) fill(c *core.Result) {
	r.Labels = c.Labels
	r.Crowdsourced = c.Crowdsourced
	r.NumCrowdsourced = c.NumCrowdsourced
	r.NumDeduced = c.NumDeduced
}

// orderAndShard applies the configured ordering and, for sharded sessions
// (WithConcurrency > 1), builds the component partition the drivers run
// over. A streaming unweighted session reuses the incremental
// partitioner's persistent forest; IDF sessions rescore pairs at Run, so
// their partition is derived from scratch like a batch session's. Both
// routes produce identical partitions for the same order. An unsharded
// PlatformStrategy session gets a one-shard partition: the platform driver
// is partition-native.
func (j *Join) orderAndShard(numObjects int, pairs []Pair, st *streamState) ([]Pair, *core.Partition, error) {
	order := j.ordering(pairs)
	if len(order) != len(pairs) {
		return nil, nil, fmt.Errorf("crowdjoin: ordering returned %d pairs for %d candidates", len(order), len(pairs))
	}
	if j.triage.Enabled() {
		// Free machine evidence enters the deduction engine before any crowd
		// question: accepted band first, then rejected, then uncertain.
		order = triageOrder(order, j.triage)
	}
	if j.concurrency <= 1 {
		if j.strategy.kind == strategyPlatform {
			pt, err := core.SinglePartition(numObjects, order)
			return order, pt, err
		}
		return order, nil, nil
	}
	if j.triage.Enabled() {
		// Shard by the thinned graph: machine-rejected edges cannot carry
		// evidence across thinned components, so they do not connect shards
		// (they thin and fragment the Paper@0.3 giant component). Streaming
		// sessions take this route too — the incremental partitioner's
		// forest is built over the full graph, not the thinned one.
		pt, err := core.BuildTriagedPartition(numObjects, order, j.triage)
		return order, pt, err
	}
	if st != nil && !st.weighted {
		pt, err := st.ip.BuildShards(order)
		return order, pt, err
	}
	pt, err := core.BuildPartition(numObjects, order)
	return order, pt, err
}

// Run executes the session: generate candidates (unless supplied), apply
// the labeling order, replay the journal if one is attached, and drive the
// configured strategy to completion.
//
// Cancelling ctx does not abandon the work already paid for: Run returns
// the valid partial result (Partial set, every implied deduction applied)
// together with ctx's error. Any other error returns a nil result, except
// a journal write failure, which also carries the partial result.
func (j *Join) Run(ctx context.Context) (*JoinResult, error) {
	if !j.running.CompareAndSwap(false, true) {
		return nil, ErrRunInProgress
	}
	defer j.running.Store(false)
	if ctx == nil {
		//crowdjoin:ctxbackground documented Run(nil) contract: nil means never cancelled
		ctx = context.Background()
	}
	// Snapshot the input. A streaming session (Append was called) reads the
	// incremental index and partitioner under streamMu, so a concurrent
	// Append is either fully in this Run or fully in the next one; a batch
	// session generates candidates from the matcher as before.
	var (
		numObjects int
		order      []Pair
		pt         *core.Partition
		arrivals   []int
	)
	j.streamMu.Lock()
	st := j.stream
	if st != nil {
		if j.cascade != nil {
			j.streamMu.Unlock()
			return nil, errors.New("crowdjoin: WithCascade is incompatible with streaming sessions (Append)")
		}
		numObjects = st.idx.NumRecords()
		arrivals = append([]int(nil), st.arrivals...)
		var err error
		order, pt, err = j.orderAndShard(numObjects, st.idx.Pairs(), st)
		j.streamMu.Unlock()
		if err != nil {
			return nil, err
		}
	} else {
		j.streamMu.Unlock()
		if j.cascade != nil {
			return j.runCascade(ctx)
		}
		numObjects = j.numObjects
		pairs := j.pairs
		if !j.havePairs {
			var err error
			if j.bipartite {
				pairs, err = j.matcher.CandidatesAcross(j.texts, j.textsB)
			} else {
				pairs, err = j.matcher.Candidates(j.texts)
			}
			if err != nil {
				return nil, err
			}
		}
		var err error
		order, pt, err = j.orderAndShard(numObjects, pairs, nil)
		if err != nil {
			return nil, err
		}
	}

	runCtx, cancel, jrn, err := j.journalFor(ctx, numObjects, st, arrivals)
	if err != nil {
		return nil, err
	}
	if cancel != nil {
		defer cancel()
	}
	return j.runOnce(runCtx, numObjects, order, pt, jrn)
}

// journalFor resolves the session journal for a Run: a file journal is
// rewound (or the Run refused) when already consumed and re-opened, a
// journal-less session falls back to the in-memory answer cache. With a
// file journal the returned context cancels the run on journal write
// failure, and the returned cancel func must be deferred by the caller.
func (j *Join) journalFor(ctx context.Context, numObjects int, st *streamState, arrivals []int) (context.Context, context.CancelFunc, *journalState, error) {
	if j.journal != nil {
		if j.journalUsed {
			// An earlier Run consumed the stream; re-reading from the
			// current position would see no entries, replay nothing, and
			// append a second header. Rewind when the stream supports it
			// (appends still go to the end on O_APPEND files).
			s, ok := j.journal.(io.Seeker)
			if !ok {
				return nil, nil, nil, errors.New("crowdjoin: journal stream already consumed by an earlier Run; reopen the journal (or use a seekable stream such as *os.File)")
			}
			if _, err := s.Seek(0, io.SeekStart); err != nil {
				return nil, nil, nil, fmt.Errorf("crowdjoin: rewinding journal for re-Run: %w", err)
			}
		}
		j.journalUsed = true
		initialObjects := numObjects
		if st != nil {
			initialObjects = st.n0
		}
		jrn, err := openJournal(j.journal, initialObjects, arrivals)
		if err != nil {
			return nil, nil, nil, err
		}
		// A journal write failure cancels the run so no further answers are
		// bought without being recorded; the driver then comes back with a
		// consistent partial result.
		runCtx, cancel := context.WithCancel(ctx)
		jrn.onError = cancel
		return journaledContext{Context: runCtx, caller: ctx}, cancel, jrn, nil
	}
	// No file journal: answers bought by earlier Runs of this session are
	// cached in memory and replayed, so a re-Run — and in particular the
	// finishing Run of a streaming join — never re-crowdsources a pair.
	j.streamMu.Lock()
	if j.mem == nil {
		j.mem = newMemoryJournal(numObjects)
	}
	jrn := j.mem
	j.streamMu.Unlock()
	jrn.resetReplay()
	return ctx, nil, jrn, nil
}

// journaledContext is the context a journaled Run hands its driver: a
// child of the caller's ctx that the journal also cancels on a write
// failure. Err reads the caller's ctx first. A child learns of ctx's
// cancellation only when ctx's cancel reaches it, in no set order among
// ctx's children, so a platform woken by context.AfterFunc on ctx can hand
// the driver "no answer" while the child still reports nil — and the
// driver would report a misbehaving platform instead of the cancellation.
type journaledContext struct {
	context.Context
	caller context.Context
}

// Err implements context.Context.
func (c journaledContext) Err() error {
	if err := c.caller.Err(); err != nil {
		return err
	}
	return c.Context.Err()
}

// runOnce drives the configured strategy over one ordered (and possibly
// sharded) candidate set: it wraps the crowd backend in the journal layer,
// then — outermost, so machine answers are never journaled — the triage
// layer, runs the strategy, and consolidates the result. Run calls it once;
// runCascade calls it per stage with a shared journal.
func (j *Join) runOnce(runCtx context.Context, numObjects int, order []Pair, pt *core.Partition, jrn *journalState) (*JoinResult, error) {
	oracle, batch, platform := j.oracle, j.batch, j.platform
	if jrn != nil {
		if oracle != nil {
			oracle = &journalOracle{inner: oracle, jrn: jrn}
		}
		if batch != nil {
			batch = &journalBatchOracle{inner: batch, jrn: jrn}
		}
		if platform != nil {
			platform = &journalPlatform{inner: platform, jrn: jrn}
		}
	}
	progress := j.progress
	var tri *triageState
	if j.triage.Enabled() {
		tri = newTriageState(j.triage, len(order))
		if oracle != nil {
			oracle = &triageOracle{inner: oracle, tri: tri}
		}
		if batch != nil {
			batch = &triageBatchOracle{inner: batch, tri: tri}
		}
		if platform != nil {
			platform = &triagePlatform{inner: platform, tri: tri}
		}
		progress = tri.progressFilter(progress)
	}
	ro := core.RunOpts{Ctx: runCtx, Progress: progress}
	res := &JoinResult{NumObjects: numObjects, Order: order}
	sharded := j.concurrency > 1
	if sharded {
		res.Components = len(pt.Shards)
	}
	var runErr error
	switch j.strategy.kind {
	case strategySequential:
		var r *core.Result
		var err error
		if sharded {
			r, err = core.LabelPartitionedSequentialRun(pt, singleOracleFrom(oracle, batch), j.concurrency, ro)
		} else {
			r, err = core.LabelSequentialRun(numObjects, order, singleOracleFrom(oracle, batch), ro)
		}
		runErr = err
		if r != nil {
			res.fill(r)
		}
	case strategyParallel:
		var r *core.ParallelResult
		var err error
		switch {
		case sharded && j.router == BalancedRouter:
			r, err = core.LabelRoutedParallelRun(pt, batchOracleFrom(oracle, batch), j.concurrency, ro)
		case sharded:
			r, err = core.LabelPartitionedParallelRun(pt, batchOracleFrom(oracle, batch), j.concurrency, ro)
		default:
			r, err = core.LabelParallelRun(numObjects, order, batchOracleFrom(oracle, batch), ro)
		}
		runErr = err
		if r != nil {
			res.fill(&r.Result)
			res.RoundSizes = r.RoundSizes
			res.Conflicts = r.Conflicts
		}
	case strategyPlatform:
		r, err := core.LabelPartitionedOnPlatformRun(pt, platform, j.instant, ro)
		runErr = err
		if r != nil {
			res.fill(&r.Result)
			res.PublishSizes = r.PublishSizes
			res.Availability = r.Availability
			res.Conflicts = r.Conflicts
		}
	case strategyOneToOne:
		var r *core.OneToOneResult
		var err error
		if sharded {
			r, err = core.LabelPartitionedOneToOneRun(pt, singleOracleFrom(oracle, batch), j.concurrency, ro)
		} else {
			r, err = core.LabelSequentialOneToOneRun(numObjects, order, singleOracleFrom(oracle, batch), ro)
		}
		runErr = err
		if r != nil {
			res.fill(&r.Result)
			res.NumConstraintDeduced = r.NumConstraintDeduced
		}
	case strategyBudget:
		r, err := core.LabelWithBudgetRun(numObjects, order, singleOracleFrom(oracle, batch), j.strategy.budget, j.strategy.guessThreshold, ro)
		runErr = err
		if r != nil {
			res.fill(&r.Result)
			res.Guessed = r.Guessed
			res.NumGuessed = r.NumGuessed
		}
	default:
		return nil, fmt.Errorf("crowdjoin: unknown strategy %v", j.strategy)
	}
	if tri != nil && res.Labels != nil {
		tri.fill(res)
	}
	if jrn != nil {
		res.Replayed = jrn.replayedCount()
		if jerr := jrn.writeErr(); jerr != nil {
			werr := fmt.Errorf("crowdjoin: journal append: %w", jerr)
			if res.Labels == nil {
				// The driver failed outright before the cancellation could
				// produce a partial result; there is nothing usable.
				return nil, werr
			}
			res.Partial = true
			return res, werr
		}
	}
	if runErr != nil {
		if res.Labels == nil {
			return nil, runErr // validation or oracle failure: nothing usable
		}
		res.Partial = true
		return res, runErr
	}
	return res, nil
}

// cascadeThresholds returns the cascade's full descent ladder: the
// configured thresholds, with the matcher's own threshold appended as the
// implicit floor when the ladder stops above it.
func (j *Join) cascadeThresholds() []float64 {
	ts := j.cascade
	if ts[len(ts)-1] > j.matcher.Threshold {
		ts = append(append([]float64(nil), ts...), j.matcher.Threshold)
	}
	return ts
}

// runCascade executes the multi-threshold blocking cascade (WithCascade).
// Stage 0 generates candidates at the highest threshold and joins them;
// each later stage descends to the next threshold, generating only the new
// similarity band [lo, prev) and only between record pairs not already
// settled — a pair both of whose records were joined into an entity by an
// earlier stage's Matching labels stops generating candidates, so the
// candidate generator does less verification work at exactly the thresholds
// where it would otherwise flood. Stages are cumulative: each re-runs the
// join over every pair generated so far, with earlier stages' crowd answers
// replayed from the shared session journal (file or in-memory), so a stage
// pays crowd questions only for its own new band. The returned result is
// the final stage's, covering the full accumulated candidate set.
func (j *Join) runCascade(ctx context.Context) (*JoinResult, error) {
	cs, err := j.matcher.newCascadeSession(j.texts, j.textsB, j.bipartite)
	if err != nil {
		return nil, err
	}
	numObjects := j.numObjects
	runCtx, cancel, jrn, err := j.journalFor(ctx, numObjects, nil, nil)
	if err != nil {
		return nil, err
	}
	if cancel != nil {
		defer cancel()
	}

	thresholds := j.cascadeThresholds()
	settled := make([]bool, numObjects)
	var accum []Pair // every band generated so far, stale IDs
	var res *JoinResult
	hi := 2.0 // stage 0 has no upper band edge
	for si, lo := range thresholds {
		var keep func(a, b int32) bool
		if si > 0 {
			keep = func(a, b int32) bool { return !settled[a] || !settled[b] }
		}
		band, err := cs.band(lo, hi, keep)
		if err != nil {
			return nil, err
		}
		hi = lo
		accum = append(accum, band...)
		if len(band) == 0 && si < len(thresholds)-1 {
			continue // nothing new; descend further before re-running
		}
		// Re-rank the accumulated set and hand it dense IDs: each stage is a
		// complete join over everything generated so far.
		stage := make([]Pair, len(accum))
		copy(stage, accum)
		sortPairsByLikelihood(stage)
		for i := range stage {
			stage[i].ID = i
		}
		order, pt, err := j.orderAndShard(numObjects, stage, nil)
		if err != nil {
			return nil, err
		}
		// Each stage reports its own replay share; the final stage's count is
		// every answer re-served from earlier stages (and any prior session).
		jrn.resetReplay()
		res, err = j.runOnce(runCtx, numObjects, order, pt, jrn)
		if err != nil || res == nil {
			return res, err
		}
		for i := range settled {
			settled[i] = false
		}
		for _, p := range res.Order {
			if res.Labels[p.ID] == Matching {
				settled[p.A], settled[p.B] = true, true
			}
		}
	}
	return res, nil
}
