package crowdjoin

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
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
	// OrderExpected sorts by likelihood descending, ties by ID — the
	// paper's practical heuristic and the session default. Pairs already in
	// that order (Matcher output and streamed candidates are) come back as
	// given, without a copy.
	OrderExpected Ordering = func(ps []Pair) []Pair {
		if slices.IsSortedFunc(ps, core.CompareExpected) {
			return ps
		}
		return ExpectedOrder(ps)
	}
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

// rules returns the sequential labeler's rules for a sequential-family
// strategy: the one-to-one constraint or the budget (the zero Rules for
// SequentialStrategy).
func (s Strategy) rules() core.Rules {
	switch s.kind {
	case strategyOneToOne:
		return core.Rules{OneToOne: true}
	case strategyBudget:
		return core.Rules{Budget: &core.Budget{Limit: s.budget, GuessThreshold: s.guessThreshold}}
	}
	return core.Rules{}
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
// ErrRunInProgress. Every Run replays the answers earlier Runs of the
// session bought. Without a journal they are cached in memory. With a
// journal, the first Run reads the stream's entries, and the session keeps
// what it parsed, together with every answer it appends, for later Runs;
// the stream is rewound (it must be an io.Seeker, e.g. an *os.File) and
// re-read only after an append to it failed, so that answers bought but
// never written are asked again. On a non-seekable stream, whose entries
// are gone after the first read, a re-Run is refused.
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
	// side; a later Run must rewind it (io.Seeker) or refuse. kept is the
	// session's one answer state: the journal state the first Run parsed,
	// reused by later Runs until an append fails, or without a journal a
	// memory journal, so that a session never buys the same answer twice —
	// in particular, a streaming session's finishing Run replays everything
	// its mid-stream Runs paid for, including a Run that preceded the first
	// Append. slots is the streaming session's answer table by pair slot.
	// All three are touched only by the Run in progress.
	journalUsed bool
	kept        *journalState
	slots       slotTable

	// streamMu guards stream, which exists once Append has switched the
	// session to streaming (see stream.go); candidates then come from the
	// incremental index instead of the batch matcher.
	streamMu sync.Mutex
	stream   *streamState

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
// PlatformStrategy always runs the resumable Algorithm-3 scan, which gives
// the results of the from-scratch one with less work per answer. In plain
// mode a component deduces inside the rescan that follows its drained
// round. With instant decisions the incremental deducer deduces after
// every answer, so an answer's EventPairDeduced events come in its order
// (the same events, possibly reordered).
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
// k = 1 (the default) runs unsharded: every strategy runs its driver on
// one shard holding the whole order, and the sequential family labels on
// the calling goroutine. With k > 1:
//
//   - Sequential and one-to-one strategies run k component subproblems on
//     concurrent goroutines, one of them the calling goroutine; the
//     configured Oracle or BatchOracle must be safe for concurrent use. A
//     component never waits on another component's crowd answers, so a
//     slow round in one cluster of the data no longer gates the rest.
//   - Parallel and platform strategies interleave per-component rounds on
//     the one round driver (single-threaded; the parallelism is in the
//     crowd, which sees every component's mandatory pairs without
//     cross-component round barriers). ParallelStrategy's crowd answers up
//     to k rounds at once — k single questions under BalancedRouter — so
//     its BatchOracle or Oracle must be safe for concurrent use.
//     PublishSizes counts one publish event per component round, and
//     EventRoundPublished.Round is the global publish index.
//   - Labels, crowdsourced flags, and counters are merged
//     deterministically by pair; for crowds whose answer to a pair does
//     not depend on question order, results are identical to k = 1. Under
//     WithTriage, a machine-rejected pair bridging two thinned components
//     is triaged on its own shard, where k = 1 may deduce it or, under
//     OneToOneStrategy, rule it out by the constraint: NonMatching either
//     way, counted under a different total.
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
	if j.strategy.kind == strategyBudget {
		// Phrased so that NaN, which fails every comparison, fails the check.
		if !(j.strategy.guessThreshold >= 0 && j.strategy.guessThreshold <= 1) {
			return nil, fmt.Errorf("crowdjoin: guess %v outside [0,1]", j.strategy.guessThreshold)
		}
		if j.strategy.budget < 0 {
			return nil, fmt.Errorf("crowdjoin: negative budget %d", j.strategy.budget)
		}
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
	// core.BuildPartition) — so this counts thinned components, plus one
	// residue shard when rejected pairs bridge them.
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

// orderAndShard applies the configured ordering and builds the partition
// the drivers run over: one shard for an unsharded session, the component
// partition for a sharded one (WithConcurrency > 1).
func (j *Join) orderAndShard(numObjects int, pairs []Pair) ([]Pair, *core.Partition, error) {
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
		pt, err := core.SinglePartition(numObjects, order)
		return order, pt, err
	}
	// Triage shards by the thinned graph: machine-rejected edges cannot
	// carry evidence across thinned components, so they do not connect
	// shards (they thin and fragment the Paper@0.3 giant component).
	pt, err := core.BuildPartition(numObjects, order, j.triage)
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
		pairs      []Pair
		slots      []int32
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
		pairs, slots = st.idx.Pairs()
		var err error
		order, pt, err = j.orderAndShard(numObjects, pairs)
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
		pairs = j.pairs
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
		order, pt, err = j.orderAndShard(numObjects, pairs)
		if err != nil {
			return nil, err
		}
	}

	runCtx, cancel, jrn, err := j.journalFor(ctx, numObjects, st, arrivals)
	if err != nil {
		return nil, err
	}
	defer cancel()
	var table []Label
	if slots != nil {
		table = j.slots.gather(jrn, pairs, slots)
		defer j.slots.scatter(table, slots)
	}
	return j.runOnce(runCtx, numObjects, order, pt, jrn, table)
}

// journalFor resolves the session journal for a Run: a file journal is
// parsed on the first Run and kept, and rewound and re-read (or the Run
// refused) only when an append to it failed; a journal-less session keeps
// a memory journal. With a file journal the returned context cancels the
// run on journal write failure. The caller defers the returned cancel
// func.
func (j *Join) journalFor(ctx context.Context, numObjects int, st *streamState, arrivals []int) (context.Context, context.CancelFunc, *journalState, error) {
	if j.journal != nil {
		if j.kept != nil && j.kept.writeErr() != nil {
			// The state holds answers whose append failed: re-read the
			// stream so they are asked again.
			j.kept = nil
		}
		if j.journalUsed {
			// An earlier Run consumed the stream. Without a kept state it is
			// re-read from the start (appends still go to the end on
			// O_APPEND files). A stream that cannot rewind is refused
			// either way.
			s, ok := j.journal.(io.Seeker)
			if !ok {
				return nil, nil, nil, errors.New("crowdjoin: journal stream already consumed by an earlier Run; reopen the journal (or use a seekable stream such as *os.File)")
			}
			if j.kept == nil {
				if _, err := s.Seek(0, io.SeekStart); err != nil {
					return nil, nil, nil, fmt.Errorf("crowdjoin: rewinding journal for re-Run: %w", err)
				}
			}
		}
		j.journalUsed = true
		if j.kept == nil {
			initialObjects := numObjects
			if st != nil {
				initialObjects = st.n0
			}
			jrn, err := openJournal(j.journal, initialObjects, arrivals)
			if err != nil {
				return nil, nil, nil, err
			}
			j.kept = jrn
		}
		// A journal write failure cancels the run so no further answers are
		// bought without being recorded; the driver then comes back with a
		// consistent partial result.
		runCtx, cancel := context.WithCancel(ctx)
		jc := &journaledContext{Context: runCtx, caller: ctx}
		stop := func() {
			jc.stopped.Store(true)
			cancel()
		}
		j.kept.resume(arrivals, stop)
		return jc, stop, j.kept, nil
	}
	// No file journal: answers bought by earlier Runs of this session are
	// cached in memory and replayed, so a re-Run — and in particular the
	// finishing Run of a streaming join — never re-crowdsources a pair.
	if j.kept == nil {
		j.kept = newMemoryJournal(numObjects)
	}
	j.kept.replayed.Store(0)
	return ctx, func() {}, j.kept, nil
}

// journaledContext is the context a journaled Run hands its driver: a
// child of the caller's ctx that the journal also cancels on a write
// failure. Err reads the caller's ctx first. A child learns of ctx's
// cancellation only when ctx's cancel reaches it, in no set order among
// ctx's children, so a platform woken by context.AfterFunc on ctx can hand
// the driver "no answer" while the child still reports nil — and the
// driver would report a misbehaving platform instead of the cancellation.
// Err then reads stopped, which the journal's cancel hook (and the Run's
// end) sets before cancelling the child, instead of the child's Err: the
// drivers call Err once per pair, and the child's takes a mutex.
type journaledContext struct {
	context.Context
	caller  context.Context
	stopped atomic.Bool
}

// Err implements context.Context.
func (c *journaledContext) Err() error {
	if err := c.caller.Err(); err != nil {
		return err
	}
	if c.stopped.Load() {
		return context.Canceled
	}
	return nil
}

// runOnce drives the configured strategy over one ordered, partitioned
// candidate set: it wraps the crowd backend in the one wrapper of its
// surface, which serves the answers the session holds (the triage bands'
// first, then the journal's) and journals only fresh crowd answers, runs
// the strategy's driver, and consolidates the result. ParallelStrategy
// runs on the round driver like PlatformStrategy, its batch oracle turned
// into a platform by the round adapter, so both wrap one platform; the
// sequential family (sequential, one-to-one, budget) runs the sequential
// driver under the strategy's rules and wraps its per-pair oracle. Run
// calls it once; runCascade calls it per stage with a shared journal.
func (j *Join) runOnce(runCtx context.Context, numObjects int, order []Pair, pt *core.Partition, jrn *journalState, table []Label) (*JoinResult, error) {
	ro := core.RunOpts{Ctx: runCtx, Progress: triageProgress(j.triage, j.progress)}
	known := knownAnswers{bands: j.triage, jrn: jrn, table: table}
	var oracle Oracle
	var platform Platform
	var rounds *core.RoundPlatform
	switch j.strategy.kind {
	case strategyParallel:
		batch := j.batch
		if batch == nil {
			batch = core.Batched(j.oracle) // pairs of a round asked one by one
		}
		rounds = core.NewRoundPlatform(pt, batch, j.concurrency, j.router == BalancedRouter, ro)
		platform = &journalPlatform{knownAnswers: known, inner: rounds}
	case strategyPlatform:
		platform = &journalPlatform{knownAnswers: known, inner: j.platform}
	default:
		oracle = j.oracle
		if oracle == nil { // NewJoin guarantees one of the two
			oracle = OracleFunc(func(p Pair) Label {
				if ans := j.batch.LabelBatch([]Pair{p}); len(ans) > 0 {
					return ans[0]
				}
				return Unlabeled // rejected by the driver's answer check
			})
		}
		oracle = &journalOracle{knownAnswers: known, inner: oracle}
	}
	res := &JoinResult{NumObjects: numObjects, Order: order}
	if j.concurrency > 1 {
		res.Components = len(pt.Shards)
	}
	var runErr error
	switch j.strategy.kind {
	case strategyParallel, strategyPlatform:
		instant := j.instant && rounds == nil
		r, err := core.LabelPartitionedOnPlatformRun(pt, platform, instant, ro)
		if rounds != nil {
			// A batch oracle that answered a round with the wrong number of
			// labels stops the driver; the adapter knows why.
			if cerr := rounds.Close(); cerr != nil && err != nil {
				err = cerr
			}
		}
		runErr = err
		if r != nil {
			res.fill(&r.Result)
			res.Conflicts = r.Conflicts
			if rounds != nil {
				res.RoundSizes = r.RoundSizes
			} else {
				res.PublishSizes = r.PublishSizes
				res.Availability = r.Availability
			}
		}
	default:
		r, err := core.LabelPartitionedSequentialRun(pt, oracle, j.strategy.rules(), j.concurrency, ro)
		runErr = err
		if r != nil {
			res.fill(&r.Result)
			res.Guessed = r.Guessed
			res.NumGuessed = r.NumGuessed
			res.NumConstraintDeduced = r.NumConstraintDeduced
		}
	}
	if j.triage.Enabled() && res.Labels != nil {
		triageFill(j.triage, res)
	}
	res.Replayed = int(jrn.replayed.Load())
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
	defer cancel()

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
		order, pt, err := j.orderAndShard(numObjects, stage)
		if err != nil {
			return nil, err
		}
		// Each stage reports its own replay share; the final stage's count is
		// every answer re-served from earlier stages (and any prior session).
		jrn.replayed.Store(0)
		res, err = j.runOnce(runCtx, numObjects, order, pt, jrn, nil)
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
