package crowdjoin

import (
	"fmt"
	"math/rand"

	"crowdjoin/internal/clustergraph"
	"crowdjoin/internal/core"
	"crowdjoin/internal/unionfind"
)

// Core labeling types. Pair IDs are dense within a candidate set; result
// slices are indexed by Pair.ID.
type (
	// Pair is a candidate pair of objects with a machine likelihood.
	Pair = core.Pair
	// Label is a pair's ternary label state.
	Label = core.Label
	// Oracle answers one pair-labeling question (your crowd).
	Oracle = core.Oracle
	// OracleFunc adapts a function to Oracle.
	OracleFunc = core.OracleFunc
	// BatchOracle answers a round of questions at once.
	BatchOracle = core.BatchOracle
	// BatchOracleFunc adapts a function to BatchOracle.
	BatchOracleFunc = core.BatchOracleFunc
	// TruthOracle answers from a ground-truth entity assignment.
	TruthOracle = core.TruthOracle
	// Truth is a ground-truth predicate over object pairs.
	Truth = core.Truth
	// Platform is the crowdsourcing-backend surface PlatformStrategy needs.
	Platform = core.Platform
	// SelectionPolicy is how a simulated crowd picks its next pair.
	SelectionPolicy = core.SelectionPolicy
)

// Label values.
const (
	Unlabeled   = core.Unlabeled
	Matching    = core.Matching
	NonMatching = core.NonMatching
)

// Simulated-crowd selection policies.
const (
	SelectFIFO                = core.SelectFIFO
	SelectRandom              = core.SelectRandom
	SelectAscendingLikelihood = core.SelectAscendingLikelihood
)

// ExpectedOrder sorts pairs by decreasing matching likelihood — the paper's
// practical labeling-order heuristic.
func ExpectedOrder(pairs []Pair) []Pair { return core.ExpectedOrder(pairs) }

// OptimalOrder places all truly matching pairs first (requires ground
// truth; an analysis reference, not achievable in production).
func OptimalOrder(pairs []Pair, truth Truth) []Pair { return core.OptimalOrder(pairs, truth) }

// WorstOrder places all non-matching pairs first (analysis reference).
func WorstOrder(pairs []Pair, truth Truth) []Pair { return core.WorstOrder(pairs, truth) }

// RandomOrder shuffles pairs uniformly.
func RandomOrder(pairs []Pair, rng *rand.Rand) []Pair { return core.RandomOrder(pairs, rng) }

// NewSimulatedCrowd returns an in-memory Platform whose answers come from
// oracle and whose workers label outstanding pairs per policy
// (SelectAscendingLikelihood is the non-matching-first optimization). rng
// is required for SelectRandom.
func NewSimulatedCrowd(oracle Oracle, policy SelectionPolicy, rng *rand.Rand) Platform {
	return core.NewSimPlatform(oracle, policy, rng)
}

// Clusters returns the entity clusters implied by the matching labels:
// connected components over numObjects objects. Labels are indexed by
// Pair.ID; a pair whose ID or object ids fall outside [0,len(labels)) or
// [0,numObjects) is reported as an error rather than a panic. Objects
// appear in increasing order; clusters are ordered by smallest member.
func Clusters(numObjects int, pairs []Pair, labels []Label) ([][]int32, error) {
	if len(labels) < len(pairs) {
		return nil, fmt.Errorf("crowdjoin: %d labels for %d pairs", len(labels), len(pairs))
	}
	u := unionfind.New(numObjects)
	for _, p := range pairs {
		if p.ID < 0 || p.ID >= len(labels) {
			return nil, fmt.Errorf("crowdjoin: pair (%d,%d) has ID %d outside [0,%d)", p.A, p.B, p.ID, len(labels))
		}
		if p.A < 0 || int(p.A) >= numObjects || p.B < 0 || int(p.B) >= numObjects {
			return nil, fmt.Errorf("crowdjoin: pair %d references object outside [0,%d)", p.ID, numObjects)
		}
		if labels[p.ID] == Matching {
			// Conflicting crowd labels collapse rather than error:
			// positive labels win for clustering purposes.
			u.Union(p.A, p.B)
		}
	}
	return u.Clusters(), nil
}

// Deducer answers whether a pair's label follows from already-known labels,
// exposing the paper's ClusterGraph for custom workflows.
type Deducer struct {
	g *clustergraph.Graph
}

// NewDeducer returns a Deducer over numObjects objects.
func NewDeducer(numObjects int) *Deducer {
	return &Deducer{g: clustergraph.New(numObjects)}
}

// Add records a labeled pair. It returns an error when the label
// contradicts the transitive closure of earlier labels.
func (d *Deducer) Add(a, b int32, matching bool) error { return d.g.Insert(a, b, matching) }

// Deduce returns the label implied for (a, b) and whether one is implied.
func (d *Deducer) Deduce(a, b int32) (Label, bool) {
	switch d.g.Deduce(a, b) {
	case clustergraph.DeducedMatching:
		return Matching, true
	case clustergraph.DeducedNonMatching:
		return NonMatching, true
	default:
		return Unlabeled, false
	}
}
