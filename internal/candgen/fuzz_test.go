package candgen

import (
	"fmt"
	"strings"
	"testing"

	"crowdjoin/internal/dataset"
)

// FuzzPositionalMatchesExhaustive fuzzes the full positional engine —
// bounds, probe loop, resume tracking, bitset rows, pooled scratch —
// against the exhaustive reference. The fuzzer controls the record token
// lists (data: records separated by 0xFF bytes, each remaining byte one
// token id mod 97, so corpora cross the 64-token frequent-row boundary in
// both directions), the threshold (1%..100%), the weighting, and the
// dataset shape; the positional result must be byte-identical to
// ExhaustiveCandidates in every case. The probe queue on three forced
// workers must also return the one-worker run bit for bit.
func FuzzPositionalMatchesExhaustive(f *testing.F) {
	f.Add([]byte("the quick fox\xffthe quick fox\xfflazy dog"), uint8(30), false, false)
	f.Add([]byte{1, 2, 3, 4, 0xFF, 2, 3, 4, 5, 0xFF, 90, 91, 92, 0xFF, 0xFF}, uint8(50), true, true)
	f.Add([]byte("a\xffb\xffc\xffa b c"), uint8(100), false, true)
	f.Add([]byte{}, uint8(5), true, false)
	// Enough records for several probe chunks, so three workers share them.
	var many []byte
	for i := 0; i < 60; i++ {
		many = append(many, byte(i%7), byte(i%11+10), byte(i%5+30), 0xFF)
	}
	f.Add(many, uint8(20), false, false)
	f.Fuzz(func(t *testing.T, data []byte, thByte uint8, weighted, bipartite bool) {
		if len(data) > 400 {
			data = data[:400] // keep the O(n²) exhaustive reference cheap
		}
		th := float64(thByte%100+1) / 100
		var texts []string
		var cur []string
		for _, c := range data {
			if c == 0xFF {
				texts = append(texts, strings.Join(cur, " "))
				cur = cur[:0]
				continue
			}
			cur = append(cur, fmt.Sprintf("t%d", int(c)%97))
		}
		texts = append(texts, strings.Join(cur, " "))
		for len(texts) < 2 {
			texts = append(texts, "") // bipartite needs a record on each side
		}
		d := &dataset.Dataset{Name: "fuzz", NumEntities: 1, Bipartite: bipartite}
		split := len(texts) / 2
		for i, txt := range texts {
			src := "a"
			if bipartite && i >= split {
				src = "b"
			}
			d.Records = append(d.Records, dataset.Record{
				ID:     int32(i),
				Source: src,
				Fields: []dataset.Field{{Name: "text", Value: txt}},
			})
			if bipartite {
				if i < split {
					d.SourceA = append(d.SourceA, int32(i))
				} else {
					d.SourceB = append(d.SourceB, int32(i))
				}
			}
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("constructed dataset invalid: %v", err)
		}
		w := Unweighted
		if weighted {
			w = IDFWeighted
		}
		s := NewScorer(d, w)
		want, err := ExhaustiveCandidates(d, s, th)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Candidates(d, s, th)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("th=%v weighted=%v bipartite=%v", th, weighted, bipartite)
		assertSamePairs(t, label, got, want)
		ps := buildPositionalSet(d, s, th, nil)
		ix := buildPositionalPostings(ps, nil)
		verify := s.verifierAt(th)
		one := positionalShards(ps, ix, ps.order, verify, 1, nil)
		three := positionalShards(ps, ix, ps.order, verify, 3, nil)
		assertIdenticalPairs(t, label+" workers=3", len(one), three, one)
	})
}
