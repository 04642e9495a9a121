package core

import (
	"errors"
	"fmt"

	"crowdjoin/internal/clustergraph"
)

// CrowdsourceablePairs implements Algorithm 3 (ParallelCrowdsourcedPairs):
// given the labeling order and the labels obtained so far (Unlabeled where
// unknown, indexed by Pair.ID), it returns the pairs that must be
// crowdsourced no matter how the remaining unlabeled pairs turn out.
//
// The scan walks the order once, inserting labeled pairs with their actual
// labels and optimistically assuming every unlabeled pair is matching: if a
// pair is undeducible even under that assumption — which minimizes the
// number of non-matching pairs on every path — it is undeducible under any
// completion, so it is safe to crowdsource immediately.
func CrowdsourceablePairs(numObjects int, order []Pair, labels []Label) ([]Pair, error) {
	if err := ValidatePairs(numObjects, order); err != nil {
		return nil, err
	}
	scratch := clustergraph.New(numObjects)
	return crowdsourceable(scratch, order, labels, nil), nil
}

// crowdsourceable is the allocation-conscious kernel behind
// CrowdsourceablePairs. scratch must be an empty (or Reset) graph sized to
// the object universe. If skip is non-nil, pairs whose IDs are marked true
// are still assumed matching but excluded from the returned set — this is
// the "excluding the already published pairs" modification of Section 5.2.
//
// Inserts use ForceInsert because the optimistic all-matching assumption can
// contradict actual labels encountered later in the scan; the graph then
// tracks minimum non-matching counts rather than a consistent labeling.
func crowdsourceable(scratch *clustergraph.Graph, order []Pair, labels []Label, skip []bool) []Pair {
	var out []Pair
	for _, p := range order {
		switch labels[p.ID] {
		case Matching:
			scratch.ForceInsert(p.A, p.B, true)
		case NonMatching:
			scratch.ForceInsert(p.A, p.B, false)
		default:
			// Assume deduces the pair and, when undeduced, supposes it is
			// matching (Algorithm 3, line 11) in one fused step. A
			// deducible pair's label is determined by earlier pairs, so
			// the graph already carries its information.
			if scratch.Assume(p.A, p.B) != clustergraph.Undeduced {
				continue
			}
			if skip == nil || !skip[p.ID] {
				out = append(out, p)
			}
		}
	}
	return out
}

// ParallelResult extends Result with per-iteration round sizes, the series
// plotted in Figures 13 and 14.
type ParallelResult struct {
	Result
	// RoundSizes[i] is the number of pairs crowdsourced in iteration i.
	RoundSizes []int
	// Conflicts counts crowd answers that contradicted the transitive
	// closure of earlier answers and were overridden by the implied label.
	// Zero for any crowd whose answers are consistent with some ground
	// truth.
	Conflicts int
}

// LabelParallelRun runs the parallel labeling algorithm (Algorithm 2): in
// each iteration it identifies every pair that can be crowdsourced in
// parallel (Algorithm 3), asks the oracle for the whole batch at once, then
// deduces all pairs whose labels now follow from transitive relations. It
// terminates when every pair is labeled.
//
// The rounds are incremental: instead of rebuilding Algorithm 3's scan
// from scratch and sweeping the whole order for deductions after every
// batch, the driver uses an IncrementalScanner whose fused pass both
// deduces still-unlabeled pairs (Algorithm 2, lines 6–8) and selects the
// next batch, while a persistent base graph permanently absorbs the
// growing labeled-and-deduced prefix so each round replays only the active
// window of the order. The published batches, deduced labels, and round
// sizes are identical to the from-scratch formulation.
//
// The total number of crowdsourced pairs equals the sequential labeler's
// for the same order and oracle (Section 5.1).
//
// The session options add context cancellation (partial result + ctx
// error, see RunOpts.Ctx) and progress events. Cancellation is observed
// between rounds, after the fused scan-and-deduce pass — so every
// deduction implied by the answers already collected is in the partial
// result, and only the pending batch is abandoned.
func LabelParallelRun(numObjects int, order []Pair, oracle BatchOracle, ro RunOpts) (*ParallelResult, error) {
	if err := ValidatePairs(numObjects, order); err != nil {
		return nil, err
	}
	res := &ParallelResult{Result: *newResult(len(order))}
	labeled := clustergraph.New(numObjects) // crowd-labeled pairs only
	scanner := NewIncrementalScanner(numObjects, order)
	if ro.Progress != nil {
		scanner.OnDeduce = func(p Pair, l Label) { ro.emitPair(EventPairDeduced, p, l) }
	}
	unlabeled := len(order)

	// The labeled graph is frozen during a scan, so each round resolves
	// every object's root once into rootBuf and the scan's fused deduction
	// resolves pairs with two array loads instead of two Find walks.
	rootBuf := make([]int32, numObjects)
	labeled.RootsInto(rootBuf)

	for unlabeled > 0 {
		batch, deduced := scanner.scan(res.Labels, labeled, rootBuf)
		res.NumDeduced += deduced
		unlabeled -= deduced
		if len(batch) == 0 {
			if unlabeled == 0 {
				// The final answers made every remaining pair deducible;
				// the fused pass above just labeled them.
				break
			}
			// Cannot happen: the first unlabeled pair in the order is
			// always selected, because its prefix holds only actual labels
			// and the fused deduction already exhausted those.
			return nil, fmt.Errorf("core: parallel labeling stalled with %d pairs unlabeled", unlabeled)
		}
		if err := ro.err(); err != nil {
			// The scan above already deduced everything the collected
			// answers imply; the selected batch was never published.
			return res, err
		}
		ro.emitRound(len(res.RoundSizes), len(batch))
		answers := oracle.LabelBatch(batch)
		if len(answers) != len(batch) {
			// A context-cancelling oracle wrapper may abandon a round
			// mid-batch after cancelling the session; the cancellation
			// contract applies, not the short-answer error.
			if cerr := ro.err(); cerr != nil {
				deduceRemaining(labeled, order, &res.Result, ro)
				return res, cerr
			}
			return nil, fmt.Errorf("core: batch oracle returned %d answers for %d pairs", len(answers), len(batch))
		}
		for i, p := range batch {
			if err := checkAnswer(p, answers[i]); err != nil {
				if cerr := ro.err(); cerr != nil {
					deduceRemaining(labeled, order, &res.Result, ro)
					return res, cerr
				}
				return nil, err
			}
			l := answers[i]
			if err := labeled.Insert(p.A, p.B, l == Matching); err != nil {
				if !errors.Is(err, clustergraph.ErrConflict) {
					return nil, fmt.Errorf("core: parallel labeling: %w", err)
				}
				// An inconsistent crowd can answer against the closure of
				// the other answers: the optimistic scan drops non-matching
				// edges its assumptions bypass, so a selected pair is not
				// always independent of the actual labels. First knowledge
				// wins, as in the platform driver.
				res.Conflicts++
				if labeled.Deduce(p.A, p.B) == clustergraph.DeducedMatching {
					l = Matching
				} else {
					l = NonMatching
				}
				ro.emitPair(EventConflictOverridden, p, l)
			}
			res.Labels[p.ID] = l
			scanner.NoteLabel(p.ID, l)
			res.Crowdsourced[p.ID] = true
			res.NumCrowdsourced++
			ro.emitPair(EventPairCrowdsourced, p, l)
			unlabeled--
		}
		res.RoundSizes = append(res.RoundSizes, len(batch))
		labeled.RootsInto(rootBuf) // the batch's answers moved the roots
	}
	return res, nil
}
