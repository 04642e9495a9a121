package candgen

import (
	"testing"

	"crowdjoin/internal/dataset"
)

// benchCorpus is the paper-shaped Cora corpus at full scale — the same
// shape the repo-level BenchmarkCandidates measures — so the ablation
// numbers below compose with the headline benchmark.
func benchCorpus(b *testing.B) *dataset.Dataset {
	b.Helper()
	d := dataset.GenerateCora(dataset.DefaultCoraConfig())
	if err := d.Validate(); err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkVerifyKernelAblations isolates each verification-kernel attack
// (DESIGN.md "Verification kernel") on the paper corpus at t = 0.3:
//
//   - full: the shipped configuration — overlap-resumed merge plus the
//     frequent-token bitset rows.
//   - no-resume: every verification restarts the merge at token 0 (the
//     verifier still uses the bitset split); measures attack (b) alone.
//   - no-bitset: freqTokens = 0, so every token is "rare" — the resumed
//     merge walks full suffixes and the probe loop loses the
//     bitset-tightened bound; measures attack (c)'s bitset half.
//   - no-resume-no-bitset: both off — the PR 5 kernel's work profile,
//     the in-tree baseline the attacks are measured against.
//   - weighted-full / weighted-no-resume: attack (b) on the IDF path,
//     where verification is a resumed reject-filter before the exact
//     Similarity merge.
func BenchmarkVerifyKernelAblations(b *testing.B) {
	d := benchCorpus(b)
	const th = 0.3

	run := func(b *testing.B, s *Scorer, verify verifier) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			positionalJoin(d, s, th, verify)
		}
	}
	unweighted := func(s *Scorer) verifier {
		return func(x, y int32, rs resume) (float64, bool) { return s.verifyJaccardResumed(x, y, rs, th) }
	}
	unweightedNoResume := func(s *Scorer) verifier {
		return func(x, y int32, _ resume) (float64, bool) { return s.verifyJaccardResumed(x, y, noResume, th) }
	}

	b.Run("full", func(b *testing.B) {
		s := NewScorer(d, Unweighted)
		run(b, s, unweighted(s))
	})
	b.Run("no-resume", func(b *testing.B) {
		s := NewScorer(d, Unweighted)
		run(b, s, unweightedNoResume(s))
	})
	b.Run("no-bitset", func(b *testing.B) {
		defer func(v int) { freqTokens = v }(freqTokens)
		freqTokens = 0
		s := NewScorer(d, Unweighted)
		run(b, s, unweighted(s))
	})
	b.Run("no-resume-no-bitset", func(b *testing.B) {
		defer func(v int) { freqTokens = v }(freqTokens)
		freqTokens = 0
		s := NewScorer(d, Unweighted)
		run(b, s, unweightedNoResume(s))
	})
	b.Run("weighted-full", func(b *testing.B) {
		s := NewScorer(d, IDFWeighted)
		run(b, s, func(x, y int32, rs resume) (float64, bool) { return s.verifyWeightedResumed(x, y, rs, th) })
	})
	b.Run("weighted-no-resume", func(b *testing.B) {
		s := NewScorer(d, IDFWeighted)
		run(b, s, func(x, y int32, _ resume) (float64, bool) { return s.verifyWeightedResumed(x, y, noResume, th) })
	})
}
