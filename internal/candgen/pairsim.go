package candgen

import "math"

// TextSimilarity scores two raw texts directly — the lightweight path
// behind Matcher.Similarity. It reproduces, bit for bit, what
// NewScorer(two-record dataset, w).Similarity(0, 1) computes (the same
// tokenizer, first-seen token ids, merge kernel and two-document IDF
// formula), without building a dataset or per-record weight tables, so
// pairwise probes stop paying the corpus-construction cost.
func TextSimilarity(a, b string, w Weighting) float64 {
	s := &Scorer{offs: make([]int32, 1, 3)}
	tz := newTokenizer()
	tz.add(s, a)
	s.endRecord()
	tz.add(s, b)
	s.endRecord()
	if w == Unweighted {
		return jaccardMerge(s.tok(0), s.tok(1))
	}
	// Two-document IDF, exactly as NewScorer computes it: df is 1 for a
	// token in one record, 2 for a shared token; idf = log(1 + 2/(1+df)).
	idf := make([]float64, len(s.df))
	for id, f := range s.df {
		idf[id] = math.Log(1 + 2/float64(1+f))
	}
	return weightedJaccardMerge(s.tok(0), s.tok(1), idf)
}
