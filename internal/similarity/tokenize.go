// Package similarity is the test reference for the machine half of the
// hybrid workflow, whose pair likelihood is token Jaccard (Section 4.2 —
// "the likelihood can be the similarity computed by a given similarity
// function", citing CrowdER). No binary imports it: internal/candgen
// computes the likelihoods, and its tests check them against the plain
// string versions here — Tokenize and TokenSet for candgen's byte tokenizer
// (FuzzTokenIDsMatchTokenSet), and Jaccard for the Scorer's kernels.
package similarity

import (
	"strings"
	"unicode"
)

// Tokenize lowercases s and splits it into maximal runs of letters and
// digits; everything else separates tokens. It is the reference for
// candgen's byte tokenizer, which interns the same tokens without building
// strings and is fuzzed against TokenSet (FuzzTokenIDsMatchTokenSet).
func Tokenize(s string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return tokens
}

// TokenSet returns the distinct tokens of s in first-seen order.
func TokenSet(s string) []string {
	tokens := Tokenize(s)
	seen := make(map[string]struct{}, len(tokens))
	out := tokens[:0]
	for _, t := range tokens {
		if _, ok := seen[t]; ok {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
