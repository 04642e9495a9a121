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

// Holder is implemented by platforms that can hold answers the crowd has
// already given, such as RoundPlatform. Held reports how many answers
// NextLabel serves without asking the crowd for more; it may wait for
// crowd calls already under way to return. A cancelled driver takes those
// answers before its sweep, so an answer that was paid for is labeled (and
// journaled) rather than dropped. Platform wrappers forward it.
type Holder interface {
	Held() int
}

// TraceResult extends Result with the series needed for Figures 13–15 and
// the publish bookkeeping needed for HIT accounting.
type TraceResult struct {
	Result
	// RoundSizes[i] is the number of pairs published in every shard's i-th
	// round, summed over the shards — Algorithm 2's iteration sizes in
	// plain mode, because a global Algorithm-3 round is the union of the
	// per-component rounds.
	RoundSizes []int
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
	s       *Shard
	ro      RunOpts
	res     Result
	labeled *clustergraph.Graph
	scan    *resumableScan
	// ded indexes pairs by object for the per-answer deduction of instant
	// mode; plain mode deduces in the scan when a round drains.
	ded       *incrementalDeducer
	affected  []int32
	published []bool
	unlabeled int
	// outstanding counts this shard's published-but-unanswered pairs: in
	// plain (non-instant) mode a shard refills the moment its own round
	// drains, instead of waiting for the whole platform to drain.
	outstanding int
	rounds      int
	conflicts   int
}

// LabelPartitionedOnPlatformRun drives the parallel labeling algorithm
// through a Platform, over a candidate set split into components (see
// BuildPartition; SinglePartition runs it unsharded). It is the one round
// driver: ParallelStrategy runs it on a RoundPlatform, PlatformStrategy on
// the configured platform.
//
// With instant=false it is Algorithm 2: a component's next round is
// published only after its previous round drained, and the rescan that
// selects it (Algorithm 3) first deduces every pair the component's crowd
// answers now imply. With instant=true it applies the instant-decision
// optimization: after every labeled pair it deduces what the answer
// implies and immediately publishes every pair of that component that has
// become mandatory. Per the paper's observation under non-matching-first,
// only a non-matching answer can make new pairs mandatory — a matching
// answer confirms what Algorithm 3 already assumed — so the recomputation
// is skipped on matching answers.
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
// stops consuming fresh answers: it takes the answers a Holder platform
// already holds, then sweeps, so pairs whose published HITs were still in
// flight are deduced where the collected answers allow and stay Unlabeled
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
		sh := &platformShard{
			s:         s,
			ro:        s.shardRunOpts(ro.Ctx, ro.Progress, &progressMu),
			res:       *newResult(len(s.Order)),
			labeled:   clustergraph.New(s.NumObjects),
			scan:      newResumableScan(s.NumObjects, s.Order, s.Global),
			published: make([]bool, len(s.Order)),
			unlabeled: len(s.Order),
		}
		if instant {
			sh.ded = newIncrementalDeducer(s.NumObjects, s.Order, sh.labeled)
		}
		shards[i] = sh
	}
	unlabeled := numPairs

	// deduced accounts for the label l that deduction gave the pair at pos
	// of sh.
	deduced := func(sh *platformShard, pos int, l Label) {
		sh.res.NumDeduced++
		sh.unlabeled--
		unlabeled--
		sh.ro.emitPair(EventPairDeduced, sh.s.Order[pos], l)
	}

	// publish sends one shard's newly mandatory pairs to the platform, in
	// global coordinates; in plain mode its scan first deduces what the
	// drained round implies. One publish event per shard per round keeps
	// traces attributable to components.
	publish := func(sh *platformShard) {
		var crowd *clustergraph.Graph
		if !instant && sh.res.NumCrowdsourced > 0 {
			crowd = sh.labeled // nothing to deduce before the first answer
		}
		batch, dd := sh.scan.scan(sh.res.Labels, sh.published, crowd)
		for _, pos := range dd {
			deduced(sh, int(pos), sh.res.Labels[pos])
		}
		if len(batch) == 0 {
			return
		}
		sh.outstanding += len(batch)
		pf.Publish(batch)
		sh.ro.emitRound(len(res.PublishSizes), len(batch))
		res.PublishSizes = append(res.PublishSizes, len(batch))
		if sh.rounds == len(res.RoundSizes) {
			res.RoundSizes = append(res.RoundSizes, 0)
		}
		res.RoundSizes[sh.rounds] += len(batch)
		sh.rounds++
	}

	// take labels one crowd answer in its shard and returns the shard and
	// the label applied.
	take := func(p Pair, l Label) (*platformShard, Label, error) {
		if err := checkAnswer(p, l); err != nil {
			return nil, l, err
		}
		if p.ID < 0 || p.ID >= numPairs {
			return nil, l, fmt.Errorf("core: platform returned unknown pair %v", p)
		}
		si, li := pt.Locate(p.ID)
		sh := shards[si]
		if !sh.published[li] {
			return nil, l, fmt.Errorf("core: platform answered unpublished pair %v", p)
		}
		if sh.res.Labels[li] != Unlabeled {
			return nil, l, fmt.Errorf("core: platform relabeled pair %v", p)
		}
		lp := sh.s.Order[li]
		var err error
		if instant {
			sh.affected, err = sh.ded.insert(lp.A, lp.B, l == Matching, sh.affected[:0])
		} else {
			err = sh.labeled.Insert(lp.A, lp.B, l == Matching)
		}
		if err != nil {
			if !errors.Is(err, clustergraph.ErrConflict) {
				return nil, l, fmt.Errorf("core: platform labeling: %w", err)
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
		// Instant mode deduces everything that now follows from the crowd
		// labels; only pairs touching the clusters the answer changed can
		// have become deducible. Published pairs are excluded: they are
		// already paid for and their crowd answer is on its way, so the
		// crowd label wins. (With an inconsistent crowd a published pair
		// can become deducible before its HIT completes; deducing it would
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
			deduced(sh, q.ID, dl)
		}
		return sh, l, nil
	}

	// finish merges the per-shard results; PublishSizes and Availability
	// were recorded globally as they happened. A cancelled run first takes
	// the answers the platform already holds, then sweeps every shard's
	// deductions, published-but-unanswered pairs included: no answer is
	// coming for them anymore, so the deduced label is the best (and only)
	// information available.
	finish := func(err error) (*TraceResult, error) {
		if h, ok := pf.(Holder); ok && err != nil {
			for h.Held() > 0 {
				p, l, ok := pf.NextLabel()
				if !ok {
					break
				}
				take(p, l) // a bad answer is dropped; the run is cancelled anyway
			}
		}
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
			if unlabeled == 0 {
				break // the refill's scan deduced the rest
			}
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
		sh, l, err := take(p, l)
		if err != nil {
			if cerr := ro.err(); cerr != nil {
				return finish(cerr)
			}
			return nil, err
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
