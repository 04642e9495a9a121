package crowdjoin

import (
	"fmt"

	"crowdjoin/internal/candgen"
	"crowdjoin/internal/dataset"
)

// Matcher computes machine likelihoods and candidate pairs from record
// texts — the machine half of the hybrid workflow.
type Matcher struct {
	// Threshold is the minimum likelihood for a candidate pair, in (0, 1].
	Threshold float64
	// UseIDF weights token overlap by inverse document frequency instead
	// of plain Jaccard.
	UseIDF bool
}

// Candidates returns every pair of texts whose similarity reaches the
// threshold, sorted by likelihood descending with dense pair IDs — ready
// for ExpectedOrder and the labelers. Object i is texts[i].
func (m Matcher) Candidates(texts []string) ([]Pair, error) {
	d := textsToDataset(texts, nil)
	return m.candidates(d)
}

// CandidatesAcross returns candidate pairs spanning the two sources of a
// join (no within-source pairs). Objects 0..len(a)-1 are a's texts and
// len(a)..len(a)+len(b)-1 are b's.
func (m Matcher) CandidatesAcross(a, b []string) ([]Pair, error) {
	d := textsToDataset(a, b)
	return m.candidates(d)
}

func (m Matcher) candidates(d *dataset.Dataset) ([]Pair, error) {
	if !(m.Threshold > 0 && m.Threshold <= 1) {
		return nil, fmt.Errorf("crowdjoin: Matcher.Threshold %v outside (0,1]", m.Threshold)
	}
	w := candgen.Unweighted
	if m.UseIDF {
		w = candgen.IDFWeighted
	}
	// Candidates runs the positional prefix join for every threshold and
	// both weightings, byte-identical to the exhaustive reference (see
	// TestCandidatePathsAgreeOnRandomDatasets).
	return candgen.Candidates(d, candgen.NewScorer(d, w), m.Threshold)
}

// Similarity returns the likelihood the matcher assigns to two texts. It
// takes the lightweight two-record path (no dataset or scorer is built),
// which computes the identical value to scoring the pair inside a
// two-record corpus.
func (m Matcher) Similarity(a, b string) float64 {
	w := candgen.Unweighted
	if m.UseIDF {
		w = candgen.IDFWeighted
	}
	return candgen.TextSimilarity(a, b, w)
}

// cascadeSession caches the tokenized dataset and scorer across the stages
// of a multi-threshold cascade (WithCascade): descending a threshold reuses
// the token arenas, the rare-first rank order, and the pooled join scratch
// instead of re-deriving them per stage.
type cascadeSession struct {
	d *dataset.Dataset
	s *candgen.Scorer
}

func (m Matcher) newCascadeSession(a, b []string, bipartite bool) (*cascadeSession, error) {
	if !(m.Threshold > 0 && m.Threshold <= 1) {
		return nil, fmt.Errorf("crowdjoin: Matcher.Threshold %v outside (0,1]", m.Threshold)
	}
	if !bipartite {
		b = nil
	}
	d := textsToDataset(a, b)
	w := candgen.Unweighted
	if m.UseIDF {
		w = candgen.IDFWeighted
	}
	return &cascadeSession{d: d, s: candgen.NewScorer(d, w)}, nil
}

// band returns the [lo, hi) similarity band of the session's dataset,
// restricted by keep (see candgen.BandCandidates).
func (cs *cascadeSession) band(lo, hi float64, keep func(a, b int32) bool) ([]Pair, error) {
	return candgen.BandCandidates(cs.d, cs.s, lo, hi, keep)
}

// sortPairsByLikelihood re-sorts pairs likelihood-descending (ties by
// object ids) — the order every candidate generator emits.
func sortPairsByLikelihood(pairs []Pair) { candgen.SortByLikelihood(pairs) }

// textsToDataset wraps raw texts in the internal dataset representation.
// Ground-truth entities are unknown to the facade, so every record carries
// entity 0; nothing in candidate generation reads them.
func textsToDataset(a, b []string) *dataset.Dataset {
	d := &dataset.Dataset{Name: "user", NumEntities: 1, Bipartite: b != nil}
	add := func(texts []string, source string) []int32 {
		ids := make([]int32, len(texts))
		for i, t := range texts {
			id := int32(len(d.Records))
			d.Records = append(d.Records, dataset.Record{
				ID:     id,
				Source: source,
				Fields: []dataset.Field{{Name: "text", Value: t}},
			})
			ids[i] = id
		}
		return ids
	}
	d.SourceA = add(a, "a")
	if b != nil {
		d.SourceB = add(b, "b")
	} else {
		d.SourceA = nil
	}
	return d
}
