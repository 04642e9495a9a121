package core

import (
	"errors"
	"fmt"
	"sync"

	"crowdjoin/internal/clustergraph"
)

// Platform is the crowdsourcing-platform surface the labeling drivers need:
// publish pairs as available work, observe labeled results one at a time,
// and inspect how much published work is still outstanding.
//
// Implementations decide which outstanding pair gets labeled next (worker
// behaviour): e.g. uniformly at random, or lowest likelihood first, which is
// the non-matching-first optimization of Section 5.2.
type Platform interface {
	// Publish makes ps available to the crowd.
	Publish(ps []Pair)
	// NextLabel returns the next labeled pair and its answer. ok is false
	// when no published pair remains unlabeled.
	NextLabel() (p Pair, l Label, ok bool)
	// Available returns the number of published, not-yet-labeled pairs.
	Available() int
}

// TraceResult extends Result with the series needed for Figure 15 and the
// publish bookkeeping needed for HIT accounting.
type TraceResult struct {
	Result
	// PublishSizes[i] is the number of pairs made available by the i-th
	// publish event (the initial publish is event 0).
	PublishSizes []int
	// Availability[k] is Platform.Available() right after the (k+1)-th
	// labeled pair was processed, including the instant-decision republish
	// it triggered — the y-series of Figure 15 with x = k+1 crowdsourced
	// pairs. A plain-mode refill of a drained component is published after
	// the sample, at the top of the next step.
	Availability []int
	// Conflicts counts crowd answers that contradicted the transitive
	// closure of earlier answers and were overridden by the implied label
	// (possible only with an inconsistent crowd and in-flight work).
	Conflicts int
}

// platformShard is one component's private half of the platform driver:
// its own crowd-label graph, resumable Algorithm-3 scan, deducer and
// publish bookkeeping, all in the shard's local coordinates, where a pair's
// ID is its order position.
type platformShard struct {
	s         *Shard
	ro        RunOpts
	res       Result
	labeled   *clustergraph.Graph
	scan      *resumableScan
	ded       *incrementalDeducer
	affected  []int32
	published []bool
	unlabeled int
	// outstanding counts this shard's published-but-unanswered pairs: in
	// plain (non-instant) mode a shard refills the moment its own round
	// drains, instead of waiting for the whole platform to drain.
	outstanding int
	conflicts   int
}

// LabelPartitionedOnPlatformRun drives the parallel labeling algorithm
// through a Platform, over a candidate set split into components (see
// BuildPartition; SinglePartition runs it unsharded).
//
// With instant=false it behaves like plain Parallel: a component's next
// round is published only after its previous round drained. With
// instant=true it applies the instant-decision optimization: after every
// labeled pair it immediately publishes every pair of that component that
// has become mandatory. Per the paper's observation under
// non-matching-first, only a non-matching answer can make new pairs
// mandatory — a matching answer confirms what Algorithm 3 already assumed
// — so the recomputation is skipped on matching answers.
//
// Every component runs its own resumable Algorithm-3 scan, deduction
// graph, and publish rounds, while sharing the one Platform. Publishes
// interleave, a HIT round never waits for another component's answers, and
// each incoming label is routed back to the component that published it.
// The driver itself stays single-threaded (Platform is a pull interface);
// the concurrency is in the crowd, which sees every component's mandatory
// pairs at once. Labels, crowdsourced flags, counters, and conflicts do not
// depend on the partition for crowds whose answer to a pair does not depend
// on question order, served by workers whose pick among a component's
// outstanding pairs ignores the other components' (e.g. first-in-first-out
// or lowest-likelihood-first); PublishSizes splits publish events per
// component (events carry the component id), and Availability is the
// global outstanding-work series.
//
// The session options add context cancellation (partial result + ctx
// error, see RunOpts.Ctx) and progress events. On cancellation the driver
// stops consuming answers; pairs whose published HITs were still in flight
// are deduced where the collected answers allow and stay Unlabeled
// otherwise. An answer for a pair outside the candidate set, for a pair the
// driver never published, or for one already labeled is an error; the
// driver labels its own copy of the answered pair, never the platform's.
func LabelPartitionedOnPlatformRun(pt *Partition, pf Platform, instant bool, ro RunOpts) (*TraceResult, error) {
	numPairs := pt.NumPairs()
	res := &TraceResult{Result: *newResult(numPairs)}
	var progressMu sync.Mutex
	shards := make([]*platformShard, len(pt.Shards))
	for i := range pt.Shards {
		s := &pt.Shards[i]
		labeled := clustergraph.New(s.NumObjects)
		shards[i] = &platformShard{
			s:         s,
			ro:        s.shardRunOpts(ro.Ctx, ro.Progress, &progressMu),
			res:       *newResult(len(s.Order)),
			labeled:   labeled,
			scan:      newResumableScan(s.NumObjects, s.Order),
			ded:       newIncrementalDeducer(s.NumObjects, s.Order, labeled),
			published: make([]bool, len(s.Order)),
			unlabeled: len(s.Order),
		}
	}
	unlabeled := numPairs

	// publish sends one shard's newly mandatory pairs to the platform,
	// translated to global coordinates. One publish event per shard per
	// round keeps traces attributable to components.
	publish := func(sh *platformShard) {
		batch := sh.scan.scan(sh.res.Labels, sh.published)
		if len(batch) == 0 {
			return
		}
		global := make([]Pair, len(batch))
		for i, p := range batch {
			sh.published[p.ID] = true
			global[i] = sh.s.Global[p.ID]
		}
		sh.outstanding += len(global)
		pf.Publish(global)
		sh.ro.emitRound(len(res.PublishSizes), len(global))
		res.PublishSizes = append(res.PublishSizes, len(global))
	}

	// finish merges the per-shard results; PublishSizes and Availability
	// were recorded globally as they happened. A cancelled run first sweeps
	// every shard's deductions, published-but-unanswered pairs included: no
	// answer is coming for them anymore, so the deduced label is the best
	// (and only) information available.
	finish := func(err error) (*TraceResult, error) {
		for _, sh := range shards {
			if err != nil {
				deduceRemaining(sh.labeled, sh.s.Order, &sh.res, sh.ro)
			}
			mergeShardResult(&res.Result, sh.s, &sh.res)
			res.Conflicts += sh.conflicts
		}
		return res, err
	}

	for _, sh := range shards {
		publish(sh)
	}
	// drained is the shard whose round the last answer drained (plain mode
	// only). Its refill waits for the top of the next step, so that
	// answer's Availability sample is taken before it.
	var drained *platformShard
	for unlabeled > 0 {
		if err := ro.err(); err != nil {
			return finish(err)
		}
		if drained != nil {
			publish(drained)
		}
		if pf.Available() == 0 {
			// Safety net: refills and instant republishes keep every live
			// component supplied, so a drained platform with pairs still
			// unlabeled gets one more scan of every other live component.
			for _, sh := range shards {
				if sh.unlabeled > 0 && sh != drained {
					publish(sh)
				}
			}
			if pf.Available() == 0 {
				// A context-cancelling platform wrapper (rate limiter,
				// budget guard) may cancel the session and suppress the
				// publishes it was handed; that is a cancellation, not a
				// stalled scan.
				if err := ro.err(); err != nil {
					return finish(err)
				}
				return nil, fmt.Errorf("core: platform drained with %d pairs unlabeled", unlabeled)
			}
		}
		drained = nil
		p, l, ok := pf.NextLabel()
		if !ok {
			// A platform wrapper may wake a blocked NextLabel with no answer
			// when the session is cancelled; keep the partial result.
			if err := ro.err(); err != nil {
				return finish(err)
			}
			return nil, fmt.Errorf("core: platform returned no label with %d pairs available", pf.Available())
		}
		if err := checkAnswer(p, l); err != nil {
			if cerr := ro.err(); cerr != nil {
				return finish(cerr)
			}
			return nil, err
		}
		if p.ID < 0 || p.ID >= numPairs {
			return nil, fmt.Errorf("core: platform returned unknown pair %v", p)
		}
		si, li := pt.Locate(p.ID)
		sh := shards[si]
		if !sh.published[li] {
			return nil, fmt.Errorf("core: platform answered unpublished pair %v", p)
		}
		if sh.res.Labels[li] != Unlabeled {
			return nil, fmt.Errorf("core: platform relabeled pair %v", p)
		}
		lp := sh.s.Order[li]
		var err error
		sh.affected, err = sh.ded.insert(lp.A, lp.B, l == Matching, sh.affected[:0])
		if err != nil {
			if !errors.Is(err, clustergraph.ErrConflict) {
				return nil, fmt.Errorf("core: platform labeling: %w", err)
			}
			// A noisy crowd answered against the transitive closure of
			// earlier answers. This can only happen when the pair was
			// published before later answers made it deducible (in-flight
			// HITs). First knowledge wins: keep the implied label. The pair
			// still counts as crowdsourced — it was published and paid for.
			sh.conflicts++
			if sh.labeled.Deduce(lp.A, lp.B) == clustergraph.DeducedMatching {
				l = Matching
			} else {
				l = NonMatching
			}
			sh.ro.emitPair(EventConflictOverridden, lp, l)
		}
		sh.res.Labels[li] = l
		sh.scan.note(li, l)
		sh.res.Crowdsourced[li] = true
		sh.res.NumCrowdsourced++
		sh.ro.emitPair(EventPairCrowdsourced, lp, l)
		sh.outstanding--
		sh.unlabeled--
		unlabeled--
		// Deduce everything that now follows from the crowd labels; only
		// pairs touching the clusters the answer changed can have become
		// deducible. Published pairs are excluded: they are already paid
		// for and their crowd answer is on its way, so the crowd label
		// wins. (With an inconsistent crowd a published pair can become
		// deducible before its HIT completes; deducing it would
		// double-label it.)
		for _, pos := range sh.affected {
			q := sh.s.Order[pos]
			if sh.res.Labels[q.ID] != Unlabeled || sh.published[q.ID] {
				continue
			}
			var dl Label
			switch sh.labeled.Deduce(q.A, q.B) {
			case clustergraph.DeducedMatching:
				dl = Matching
			case clustergraph.DeducedNonMatching:
				dl = NonMatching
			default:
				continue
			}
			sh.res.Labels[q.ID] = dl
			sh.scan.note(q.ID, dl)
			sh.res.NumDeduced++
			sh.unlabeled--
			unlabeled--
			sh.ro.emitPair(EventPairDeduced, q, dl)
		}
		switch {
		case instant:
			// Instant decision, per component: only a non-matching answer
			// can make new pairs of this component mandatory.
			if l == NonMatching {
				publish(sh)
			}
		case sh.outstanding == 0 && sh.unlabeled > 0:
			// Plain mode: this component's round just drained, so its next
			// round goes out at the top of the next step — no waiting on
			// the other components' in-flight answers. Rounds stay
			// component-local, so the crowdsourced set is unchanged; only
			// the wall-clock interleaving improves.
			drained = sh
		}
		res.Availability = append(res.Availability, pf.Available())
	}
	return finish(nil)
}
