// Package similarity implements the string-similarity measures that drive
// the machine-based half of the hybrid workflow: the likelihood that two
// records match (Section 4.2 — "the likelihood can be the similarity
// computed by a given similarity function", citing CrowdER).
//
// It provides tokenization, set and bag similarities (Jaccard, Dice,
// overlap), TF-IDF cosine over a corpus, edit-based measures (Levenshtein,
// Jaro-Winkler), and field-weighted record similarity.
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

// QGrams returns the q-grams of s (over its raw lowercased runes, padded
// with q-1 leading and trailing '#'), the decomposition used by approximate
// string joins. q must be positive.
func QGrams(s string, q int) []string {
	if q <= 0 {
		panic("similarity: QGrams requires q > 0")
	}
	lower := strings.ToLower(s)
	runes := []rune(lower)
	if len(runes) == 0 {
		return nil
	}
	padded := make([]rune, 0, len(runes)+2*(q-1))
	for i := 0; i < q-1; i++ {
		padded = append(padded, '#')
	}
	padded = append(padded, runes...)
	for i := 0; i < q-1; i++ {
		padded = append(padded, '#')
	}
	out := make([]string, 0, len(padded)-q+1)
	for i := 0; i+q <= len(padded); i++ {
		out = append(out, string(padded[i:i+q]))
	}
	return out
}
