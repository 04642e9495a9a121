// Package crowdjoin implements crowdsourced joins (entity resolution with a
// human-in-the-loop) that exploit transitive relations to minimize the
// number of pairs the crowd must label, reproducing "Leveraging Transitive
// Relations for Crowdsourced Joins" (Wang, Li, Kraska, Franklin, Feng —
// SIGMOD 2013).
//
// # The hybrid workflow
//
// A crowdsourced join finds all pairs of records that refer to the same
// real-world entity. The hybrid workflow has a machine half and a human
// half:
//
//  1. the machine computes a matching likelihood for record pairs via
//     string similarity and keeps the pairs above a threshold — the
//     candidate set (Candidates / CandidatesAcross);
//  2. the crowd labels candidates, but because matching is transitive
//     (a=b ∧ b=c ⇒ a=c; a=b ∧ b≠c ⇒ a≠c) many labels can be deduced
//     instead of crowdsourced (Join with SequentialStrategy,
//     ParallelStrategy, or PlatformStrategy).
//
// The labeling order matters: labeling matching pairs first maximizes later
// deductions. OptimalOrder needs ground truth (an analysis tool);
// ExpectedOrder — likelihood descending — is the practical heuristic.
//
// # The Join session
//
// The whole pipeline lives behind one session type configured with
// functional options:
//
//	j, err := crowdjoin.NewJoin(
//	    crowdjoin.WithTexts(texts),
//	    crowdjoin.WithMatcher(crowdjoin.Matcher{Threshold: 0.3}),
//	    crowdjoin.WithStrategy(crowdjoin.ParallelStrategy),
//	    crowdjoin.WithOracle(crowd),
//	)
//	res, err := j.Run(ctx)
//
// WithStrategy picks the labeler: SequentialStrategy asks one pair at a
// time (minimal crowd cost, maximal latency); ParallelStrategy asks whole
// rounds of pairs that every outcome forces to the crowd;
// PlatformStrategy streams against a Platform (your crowdsourcing
// backend) and with WithInstantDecisions republishes the moment an answer
// makes new pairs mandatory; OneToOneStrategy and BudgetStrategy are the
// sequential labeler with the constraint and budget extensions. NewSimulatedCrowd and NewAMTSimulator
// provide in-memory platforms for testing and simulation.
//
// Real crowd jobs run for hours, so the session is built to be interrupted:
// cancelling ctx returns a valid partial JoinResult (every deduction the
// collected answers imply is applied), WithProgress streams per-pair and
// per-round events, and WithJournal keeps an append-only label journal
// that a later session replays to resume mid-join without re-paying for
// answered pairs.
//
// To run joins as a service rather than a library call, cmd/crowdjoind
// wraps the session API in a multi-tenant HTTP daemon: jobs are submitted
// as JSON specs, their HIT rounds are multiplexed across one crowd worker
// pool, progress streams over SSE, every job journals to a data directory
// so a restart resumes all in-flight jobs without re-asking the crowd, and
// per-tenant budgets/rate limits meter the spend. See the cmd/crowdjoind
// package docs for the HTTP API and DESIGN.md ("Join server") for the
// architecture.
//
// # Deduction engine
//
// Every labeler funnels through internal/clustergraph.Graph, which must be
// cheap enough to consult after every crowd answer. Its storage is
// allocation-free on the hot path: non-matching edges live in compact
// per-cluster edge sets (unsorted []int32 below a degree threshold,
// bitset rows above it) merged small-into-large through one level of
// indirection, so Deduce/Insert/ForceInsert run at 0 allocs/op in steady
// state. The graph also supports Snapshot/Rollback backed by an undo
// journal (over a rollback union-find whose path halvings are journaled
// too), which turns the exact expected-cost engine's world enumeration
// (ConsistentWorlds, Section 4.2) into a depth-first walk costing one
// insert+rollback per labeling-tree edge — amortized O(2^k) instead of
// O(k·2^k) full rebuilds. The parallel labeler's rounds are incremental:
// a persistent base graph permanently absorbs the labeled prefix of the
// order, so each round replays only the still-active window.
//
// scripts/bench.sh snapshots the perf-critical benchmarks into
// BENCH_core.json; see ROADMAP.md for the current measured baseline.
//
// See DESIGN.md for the system inventory; the paper-vs-measured record of
// every table and figure lives in internal/experiments (driven by
// cmd/experiments).
package crowdjoin
