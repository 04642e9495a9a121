package candgen

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"crowdjoin/internal/core"
	"crowdjoin/internal/dataset"
)

// streamTexts builds a random corpus: texts over a vocabulary of vocab
// tokens, lengths 0..maxLen, plus a side per record for bipartite trials.
func streamTexts(rng *rand.Rand, n, vocab, maxLen int, bipartite bool) ([]string, []uint8) {
	texts := make([]string, n)
	var sides []uint8
	for i := range texts {
		l := rng.Intn(maxLen + 1)
		toks := make([]string, l)
		for j := range toks {
			toks[j] = fmt.Sprintf("t%d", rng.Intn(vocab))
		}
		texts[i] = strings.Join(toks, " ")
	}
	if bipartite {
		sides = make([]uint8, n)
		for i := range sides {
			sides[i] = uint8(rng.Intn(2))
		}
	}
	return texts, sides
}

// streamDataset wraps the streamed corpus in the batch engine's dataset
// form, preserving record ids (arrival order), so batch results are
// directly comparable.
func streamDataset(texts []string, sides []uint8) *dataset.Dataset {
	d := &dataset.Dataset{Name: "stream", NumEntities: 1, Bipartite: sides != nil}
	for i, txt := range texts {
		src := "a"
		if sides != nil && sides[i] == 1 {
			src = "b"
		}
		d.Records = append(d.Records, dataset.Record{
			ID:     int32(i),
			Source: src,
			Fields: []dataset.Field{{Name: "text", Value: txt}},
		})
		if sides != nil {
			if sides[i] == 0 {
				d.SourceA = append(d.SourceA, int32(i))
			} else {
				d.SourceB = append(d.SourceB, int32(i))
			}
		}
	}
	return d
}

// randomBatches splits [0, n) into contiguous batches of random sizes,
// including occasional empty ones.
func randomBatches(rng *rand.Rand, n int) [][2]int {
	var out [][2]int
	for at := 0; at < n; {
		sz := rng.Intn(n-at) + 1
		if rng.Intn(6) == 0 {
			sz = 0 // exercise empty appends
		}
		out = append(out, [2]int{at, at + sz})
		at += sz
	}
	if len(out) == 0 {
		out = append(out, [2]int{0, 0})
	}
	return out
}

// TestStreamMatchesBatch is the core differential: appending a corpus in
// arbitrary batches and reading Pairs must be byte-identical to running
// Candidates over the final corpus — both weightings, both shapes,
// thresholds from 0.05 to 1.
func TestStreamMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	thresholds := []float64{0.05, 0.3, 0.6, 1.0}
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(60) + 2
		vocab := []int{20, 90, 300}[rng.Intn(3)]
		bipartite := trial%2 == 1
		weighted := (trial/2)%2 == 1
		th := thresholds[trial%len(thresholds)]
		texts, sides := streamTexts(rng, n, vocab, 10, bipartite)
		w := Unweighted
		if weighted {
			w = IDFWeighted
		}
		si, err := NewStreamIndex(w, th, bipartite)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range randomBatches(rng, n) {
			var bs []uint8
			if bipartite {
				bs = sides[b[0]:b[1]]
			}
			if _, err := si.Append(texts[b[0]:b[1]], bs); err != nil {
				t.Fatal(err)
			}
		}
		got, _ := si.Pairs()

		d := streamDataset(texts, sides)
		if err := d.Validate(); err != nil {
			t.Fatalf("trial %d: dataset invalid: %v", trial, err)
		}
		want, err := Candidates(d, NewScorer(d, w), th)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("trial=%d n=%d vocab=%d th=%v weighted=%v bipartite=%v", trial, n, vocab, th, weighted, bipartite)
		assertSamePairs(t, label, got, want)
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestStreamDeltasPartitionBatch pins the unweighted delta contract: each
// Append returns exactly the pairs the batch adds — the deltas are
// pairwise disjoint, every delta pair touches at least one new record,
// and their union is the batch candidate set. It also pins the slots
// Pairs returns: a delta's pairs take the next slots in delta order, and
// a pair keeps its slot through every later append.
func TestStreamDeltasPartitionBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := rng.Intn(50) + 2
		texts, _ := streamTexts(rng, n, 60, 8, false)
		si, err := NewStreamIndex(Unweighted, 0.3, false)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[[2]int32]float64)
		slotOf := make(map[[2]int32]int32)
		for _, b := range randomBatches(rng, n) {
			before := int32(si.NumRecords())
			delta, err := si.Append(texts[b[0]:b[1]], nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range delta {
				k := [2]int32{p.A, p.B}
				if _, dup := seen[k]; dup {
					t.Fatalf("trial %d: pair (%d,%d) emitted by two appends", trial, p.A, p.B)
				}
				if p.B < before {
					t.Fatalf("trial %d: delta pair (%d,%d) touches no new record (batch starts at %d)", trial, p.A, p.B, before)
				}
				if p.ID != 0 {
					t.Fatalf("trial %d: delta pair (%d,%d) carries ID %d", trial, p.A, p.B, p.ID)
				}
				seen[k] = p.Likelihood
				slotOf[k] = int32(len(slotOf)) // the next slot, in delta order
			}
			pairs, slots := si.Pairs()
			if len(slots) != len(pairs) || len(pairs) != len(slotOf) {
				t.Fatalf("trial %d: Pairs returned %d pairs and %d slots, %d emitted", trial, len(pairs), len(slots), len(slotOf))
			}
			for id, p := range pairs {
				if want := slotOf[[2]int32{p.A, p.B}]; p.ID != id || slots[id] != want {
					t.Fatalf("trial %d: pair (%d,%d) at %d has ID %d and slot %d, want slot %d", trial, p.A, p.B, id, p.ID, slots[id], want)
				}
			}
		}
		d := streamDataset(texts, nil)
		want, err := Candidates(d, NewScorer(d, Unweighted), 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(seen) {
			t.Fatalf("trial %d: deltas union has %d pairs, batch has %d", trial, len(seen), len(want))
		}
		for _, p := range want {
			sim, ok := seen[[2]int32{p.A, p.B}]
			if !ok {
				t.Fatalf("trial %d: batch pair (%d,%d) missing from deltas", trial, p.A, p.B)
			}
			if sim != p.Likelihood {
				t.Fatalf("trial %d: pair (%d,%d) likelihood %v (stream) vs %v (batch)", trial, p.A, p.B, sim, p.Likelihood)
			}
		}
	}
}

// TestStreamMultiWorkerAppend: an append of more than minForkProbes
// records onto an index of a few hundred probes on several workers. Its
// delta must equal the delta of the same append probed on one worker, and
// Pairs must equal the exhaustive reference, for both weightings and both
// shapes.
func TestStreamMultiWorkerAppend(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const first, batch, th = 300, 2 * minForkProbes, 0.2
	if probeWorkers(batch, 4) < 2 {
		t.Fatalf("an append of %d records probes on one worker", batch)
	}
	for _, w := range []Weighting{Unweighted, IDFWeighted} {
		for _, bipartite := range []bool{false, true} {
			label := fmt.Sprintf("w=%d bipartite=%v", w, bipartite)
			texts, sides := streamTexts(rand.New(rand.NewSource(13)), first+batch, 60, 8, bipartite)
			split := func(lo, hi int) []uint8 {
				if sides == nil {
					return nil
				}
				return sides[lo:hi]
			}
			var si *StreamIndex
			var deltas [2][]core.Pair
			for k, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				var err error
				if si, err = NewStreamIndex(w, th, bipartite); err != nil {
					t.Fatal(err)
				}
				if _, err := si.Append(texts[:first], split(0, first)); err != nil {
					t.Fatal(err)
				}
				if deltas[k], err = si.Append(texts[first:], split(first, first+batch)); err != nil {
					t.Fatal(err)
				}
			}
			if len(deltas[1]) == 0 {
				t.Fatalf("%s: the append found no pairs", label)
			}
			assertSamePairs(t, label+" delta", deltas[1], deltas[0])
			got, _ := si.Pairs()
			d := streamDataset(texts, sides)
			want, err := ExhaustiveCandidates(d, NewScorer(d, w), th)
			if err != nil {
				t.Fatal(err)
			}
			assertSamePairs(t, label+" pairs", got, want)
		}
	}
}

// TestStreamRunMergePolicy pins the LSM invariants: the run count never
// exceeds maxStreamRuns, and run sizes stay geometrically separated after
// compaction, under a long sequence of single-record appends.
func TestStreamRunMergePolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	si, err := NewStreamIndex(Unweighted, 0.3, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		texts, _ := streamTexts(rng, 1, 40, 6, false)
		if _, err := si.Append(texts, nil); err != nil {
			t.Fatal(err)
		}
		if si.NumRuns() > maxStreamRuns {
			t.Fatalf("after %d appends: %d runs exceeds maxStreamRuns=%d", i+1, si.NumRuns(), maxStreamRuns)
		}
		for r := 1; r < len(si.runs); r++ {
			if 2*len(si.runs[r].order) >= len(si.runs[r-1].order) {
				t.Fatalf("after %d appends: runs %d/%d sizes %d/%d violate the 2x separation", i+1, r-1, r, len(si.runs[r-1].order), len(si.runs[r].order))
			}
		}
	}
	if got, want := si.NumRecords(), 300; got != want {
		t.Fatalf("NumRecords = %d, want %d", got, want)
	}
}

// TestStreamAppendAfterFinish pins that a weighted index keeps accepting
// appends after a finish pass (Pairs) and stays exact.
func TestStreamAppendAfterFinish(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	texts, _ := streamTexts(rng, 40, 50, 8, false)
	si, err := NewStreamIndex(IDFWeighted, 0.3, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := si.Append(texts[:25], nil); err != nil {
		t.Fatal(err)
	}
	si.Pairs() // finish mid-stream
	if _, err := si.Append(texts[25:], nil); err != nil {
		t.Fatal(err)
	}
	got, _ := si.Pairs()
	d := streamDataset(texts, nil)
	want, err := Candidates(d, NewScorer(d, IDFWeighted), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePairs(t, "append-after-finish", got, want)
}

// TestStreamValidation pins the argument contract.
func TestStreamValidation(t *testing.T) {
	if _, err := NewStreamIndex(Unweighted, 0, false); err == nil {
		t.Fatal("threshold 0 accepted")
	}
	if _, err := NewStreamIndex(Unweighted, 1.5, false); err == nil {
		t.Fatal("threshold 1.5 accepted")
	}
	si, err := NewStreamIndex(Unweighted, 0.3, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := si.Append([]string{"a"}, []uint8{0}); err == nil {
		t.Fatal("sides accepted by a unipartite index")
	}
	bi, err := NewStreamIndex(Unweighted, 0.3, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bi.Append([]string{"a", "b"}, []uint8{0}); err == nil {
		t.Fatal("short sides accepted")
	}
	if _, err := bi.Append([]string{"a"}, []uint8{2}); err == nil {
		t.Fatal("side 2 accepted")
	}
	if _, err := bi.Append(nil, nil); err != nil {
		t.Fatalf("empty bipartite append rejected: %v", err)
	}
}
