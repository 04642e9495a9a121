#!/usr/bin/env sh
# Runs the labeling / deduction-core / world-enumeration /
# candidate-generation / streaming-append / join-server benchmarks (the
# BenchmarkCandidates* family covers the size-ordered positional prefix
# join over a built unweighted and IDF-weighted scorer, and from raw texts
# with NewScorer included; BenchmarkStreamingAppend tracks the Join.Append
# marginal-cost criterion; BenchmarkStreamingStep times a whole streaming
# session on a file journal, reporting its opening step and the mean later
# step (Append 50 + Run + Clusters); BenchmarkServerThroughput tracks the join
# server's cross-job HIT multiplexing, J concurrent jobs vs sequential;
# BenchmarkGiantComponent tracks the balance-aware question router's
# wall-clock win over largest-first component scheduling on Paper@0.3's
# 94%-giant-component workload; BenchmarkPlatformInstant tracks the
# instant-decision platform driver on the AMT simulator, with no sleeps;
# BenchmarkRoundDriverScale times the round driver past the paper's size,
# instant platform on the 2,000-record corpus and ParallelStrategy on the
# 4,000-record one, with a perfect crowd and no sleeps (ungated);
# BenchmarkJoinEndToEnd times one Paper@0.3 join from texts to clusters
# with a perfect crowd and no sleeps; BenchmarkServerEventStream follows
# one Paper@0.3 server job's SSE stream to its terminal state, reporting
# events and reconnects per job) and writes BENCH_core.json
# (ns/op, B/op, allocs/op, and custom metrics per benchmark) so the perf
# trajectory can be compared across PRs.
#
# Usage: scripts/bench.sh [count]            regenerate BENCH_core.json
#        scripts/bench.sh --compare [count]  diff a fresh run against the
#                                            committed BENCH_core.json
#                                            (benchstat-style deltas; exits
#                                            1 when a gated bench — the
#                                            BenchmarkCandidates* family,
#                                            BenchmarkStreamingAppend,
#                                            BenchmarkStreamingStep,
#                                            BenchmarkGiantComponent*,
#                                            BenchmarkPlatformInstant,
#                                            BenchmarkJoinEndToEnd or
#                                            BenchmarkServerEventStream —
#                                            regresses >10% ns/op)
#   count  -count passed to `go test` (default 1; --compare benefits from
#          2-3 — benchjson takes the best-of-count sample per side)
set -eu
cd "$(dirname "$0")/.."

MODE=run
if [ "${1:-}" = "--compare" ]; then
	MODE=compare
	shift
fi
COUNT="${1:-1}"
PATTERN='BenchmarkSequentialLabeling|BenchmarkParallelLabeling|BenchmarkShardedParallelLabeling|BenchmarkCrowdsourceablePairs|BenchmarkWorldEnumeration|BenchmarkExpectedOptimalOrder|BenchmarkClusterGraph|BenchmarkCandidates|BenchmarkStreamingAppend|BenchmarkStreamingStep|BenchmarkServerThroughput|BenchmarkGiantComponent|BenchmarkPlatformInstant|BenchmarkRoundDriverScale|BenchmarkJoinEndToEnd|BenchmarkServerEventStream'

if [ "$MODE" = compare ]; then
	go test -run '^$' -bench "$PATTERN" -benchmem -count "$COUNT" . |
		tee /dev/stderr |
		go run ./cmd/benchjson -compare BENCH_core.json
else
	go test -run '^$' -bench "$PATTERN" -benchmem -count "$COUNT" . |
		tee /dev/stderr |
		go run ./cmd/benchjson >BENCH_core.json
	echo "wrote BENCH_core.json" >&2
fi
