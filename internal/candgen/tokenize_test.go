package candgen

import (
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"crowdjoin/internal/dataset"
	"crowdjoin/internal/similarity"
)

// referenceIntern is the interning loop the byte tokenizer replaced: each
// text's similarity.TokenSet, interned in first-seen order, as one sorted
// id list per text.
func referenceIntern(texts []string) (map[string]int32, [][]int32) {
	dict := make(map[string]int32)
	ids := make([][]int32, len(texts))
	for i, text := range texts {
		for _, tok := range similarity.TokenSet(text) {
			id, ok := dict[tok]
			if !ok {
				id = int32(len(dict))
				dict[tok] = id
			}
			ids[i] = append(ids[i], id)
		}
		slices.Sort(ids[i])
	}
	return dict, ids
}

// fieldSplitDataset holds a and b as records 0 and 1, each split into
// fields at tabs, so NewScorer tokenizes them field by field.
func fieldSplitDataset(a, b string) *dataset.Dataset {
	d := &dataset.Dataset{Name: "pair", NumEntities: 1}
	for i, text := range []string{a, b} {
		rec := dataset.Record{ID: int32(i)}
		for _, v := range strings.Split(text, "\t") {
			rec.Fields = append(rec.Fields, dataset.Field{Name: "f", Value: v})
		}
		d.Records = append(d.Records, rec)
	}
	return d
}

// FuzzTokenIDsMatchTokenSet pins the byte tokenizer to the reference it
// replaced. For two fuzzed strings, split into fields at tabs, tokenizing
// field by field as NewScorer does must give the dictionary, per-record id
// lists and document frequencies that interning
// similarity.TokenSet(Record.Text()) gives, and TextSimilarity must equal
// NewScorer's two-record Similarity bit for bit under both weightings.
func FuzzTokenIDsMatchTokenSet(f *testing.F) {
	for _, seed := range [][2]string{
		{"\xff", "\xe2\x82"},                     // invalid and truncated UTF-8
		{"ab\xffcd \xe2\x82ef", "ab cd\xe2\x82"}, // the same inside tokens
		// U+0130 and U+212A: non-ASCII capitals whose lowercase is ASCII i, k.
		{"\u0130stanbul \u212Aelvin", "istanbul kelvin Kelvin"},
		{"STRA\u1E9EE", "stra\u00DFe strasse"},           // U+1E9E lowercases to ß
		{"cafe\u0301 re\u0301sume\u0301", "cafe resume"}, // U+0301 is no letter
		{"\uFF10\uFF11\uFF12\uFF13\uFF14 \uFF15\uFF16\uFF17\uFF18\uFF19", "01234 56789"},
		{"Ελληνικά ΛΈΞΕΙΣ και λέξεις", "Русский ТЕКСТ и русский текст"},
		{"Hello, World! foo_bar-BAZ 42x\tO'Neil", "hello WORLD\tfoo bar baz 42X o neil"},
		{"", "   \t "},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		d := fieldSplitDataset(a, b)
		wantDict, wantIDs := referenceIntern([]string{d.Records[0].Text(), d.Records[1].Text()})

		s := &Scorer{offs: make([]int32, 1)}
		tz := newTokenizer()
		for i := range d.Records {
			for _, fl := range d.Records[i].Fields {
				tz.add(s, fl.Value)
			}
			s.endRecord()
		}
		if !maps.Equal(tz.dict, wantDict) {
			t.Fatalf("dictionary %v, want %v", tz.dict, wantDict)
		}
		wantDF := make([]int32, len(wantDict))
		for r, ids := range wantIDs {
			if got := s.tok(int32(r)); !slices.Equal(got, ids) {
				t.Fatalf("record %d ids %v, want %v", r, got, ids)
			}
			for _, id := range ids {
				wantDF[id]++
			}
		}
		if !slices.Equal(s.df, wantDF) {
			t.Fatalf("df %v, want %v", s.df, wantDF)
		}
		ns := NewScorer(d, Unweighted)
		if !slices.Equal(ns.arena, s.arena) || !slices.Equal(ns.offs, s.offs) || ns.numTokens != len(wantDict) {
			t.Fatalf("NewScorer arena %v offs %v (%d tokens), want %v %v (%d)",
				ns.arena, ns.offs, ns.numTokens, s.arena, s.offs, len(wantDict))
		}

		for _, w := range []Weighting{Unweighted, IDFWeighted} {
			got := TextSimilarity(a, b, w)
			want := NewScorer(twoRecordDataset(a, b), w).Similarity(0, 1)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("weighting %d: TextSimilarity %v, NewScorer %v", w, got, want)
			}
		}
	})
}
