package candgen

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzAppendMatchesBatch fuzzes the streaming engine — frozen ranks,
// LSM runs, the probe kernel over the own run and the older runs with
// its two-way size filter, the merge policy, the weighted finish —
// against the exhaustive reference over the final corpus. The fuzzer
// controls the append schedule (data: batches separated by 0xFE bytes,
// records by 0xFF, each remaining byte one token id mod 97), the
// threshold, the weighting, and the shape (bipartite sides alternate by
// record index, so batches mix sides). The streamed Pairs must be
// byte-identical to ExhaustiveCandidates in every case.
func FuzzAppendMatchesBatch(f *testing.F) {
	f.Add([]byte("the quick fox\xffthe quick fox\xfelazy dog\xfflazy fox"), uint8(30), false, false)
	f.Add([]byte{1, 2, 3, 0xFE, 2, 3, 4, 0xFF, 90, 91, 0xFE, 0xFE, 1, 2, 3, 4}, uint8(50), true, true)
	f.Add([]byte("a b\xfe\xffa c\xfea b c"), uint8(100), false, true)
	f.Add([]byte{0xFE, 0xFE}, uint8(5), true, false)
	f.Fuzz(func(t *testing.T, data []byte, thByte uint8, weighted, bipartite bool) {
		if len(data) > 400 {
			data = data[:400] // keep the O(n²) exhaustive reference cheap
		}
		th := float64(thByte%100+1) / 100
		var batches [][]string
		var batch []string
		var cur []string
		flushRec := func() {
			batch = append(batch, strings.Join(cur, " "))
			cur = cur[:0]
		}
		for _, c := range data {
			switch c {
			case 0xFF:
				flushRec()
			case 0xFE:
				flushRec()
				batches = append(batches, batch)
				batch = nil
			default:
				cur = append(cur, fmt.Sprintf("t%d", int(c)%97))
			}
		}
		flushRec()
		batches = append(batches, batch)
		total := 0
		for _, b := range batches {
			total += len(b)
		}
		for total < 2 {
			batches = append(batches, []string{""}) // bipartite needs a record each side
			total++
		}
		w := Unweighted
		if weighted {
			w = IDFWeighted
		}
		si, err := NewStreamIndex(w, th, bipartite)
		if err != nil {
			t.Fatal(err)
		}
		var texts []string
		var sides []uint8
		for _, b := range batches {
			var bs []uint8
			if bipartite {
				bs = make([]uint8, len(b))
				for i := range bs {
					bs[i] = uint8((len(texts) + i) % 2)
				}
				sides = append(sides, bs...)
			}
			texts = append(texts, b...)
			if _, err := si.Append(b, bs); err != nil {
				t.Fatal(err)
			}
		}
		got, _ := si.Pairs()
		d := streamDataset(texts, sides)
		if err := d.Validate(); err != nil {
			t.Fatalf("constructed dataset invalid: %v", err)
		}
		want, err := ExhaustiveCandidates(d, NewScorer(d, w), th)
		if err != nil {
			t.Fatal(err)
		}
		assertSamePairs(t, fmt.Sprintf("th=%v weighted=%v bipartite=%v batches=%d", th, weighted, bipartite, len(batches)), got, want)
	})
}
