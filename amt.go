package crowdjoin

import "crowdjoin/internal/crowd"

// AMT simulation surface: a discrete-event model of a Mechanical-Turk-style
// platform with HIT batching, replicated assignments, majority voting,
// qualification tests, and worker latency/error models. It implements
// Platform, so it plugs directly into PlatformStrategy via WithPlatform.
type (
	// AMTSimulator is the simulated platform.
	AMTSimulator = crowd.Platform
	// AMTConfig parameterizes the simulation.
	AMTConfig = crowd.Config
	// ErrorModel decides how one worker answers one pair.
	ErrorModel = crowd.ErrorModel
	// PerfectWorkers always answer correctly.
	PerfectWorkers = crowd.PerfectModel
	// UniformErrorWorkers flip answers with a fixed probability.
	UniformErrorWorkers = crowd.UniformErrorModel
	// SimilarityConfusedWorkers err toward what pairs look like: lookalike
	// non-matches draw false positives and dissimilar matches draw false
	// negatives.
	SimilarityConfusedWorkers = crowd.SimilarityConfusedModel
)

// DefaultAMTConfig mirrors the paper's AMT setup: 20-pair HITs, 3
// assignments with majority vote, 2-cent rewards, qualification tests.
func DefaultAMTConfig() AMTConfig { return crowd.DefaultConfig() }

// NewAMTSimulator builds a simulated platform whose correct answers come
// from truth, distorted per cfg.Model.
func NewAMTSimulator(truth Truth, cfg AMTConfig) (*AMTSimulator, error) {
	return crowd.NewPlatform(truth, cfg)
}

// ReplayHITsSequentially replays recorded HITs one at a time on a fresh
// simulated platform and returns the completion time in hours — the
// non-parallel baseline of the paper's Table 1.
func ReplayHITsSequentially(hits [][]Pair, truth Truth, cfg AMTConfig) (float64, error) {
	return crowd.RunHITsSequentially(hits, truth, cfg)
}
