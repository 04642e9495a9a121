package crowdjoin_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"crowdjoin"
)

// streamBatch is one arrival batch of a streaming scenario; unipartite
// cases use only the a side.
type streamBatch struct {
	a, b   []string
	ea, eb []int32 // ground-truth entities, aligned with a and b
}

// randomStreamScenario builds a clustered text corpus split into 2-4
// batches (the first is the initial corpus): entities own overlapping
// token sets, records drop and add tokens so similarity correlates with
// the truth without being trivial.
func randomStreamScenario(rng *rand.Rand, n int, bipartite bool) []streamBatch {
	numEntities := n/3 + 1
	base := make([][]string, numEntities)
	for e := range base {
		toks := make([]string, 6)
		for k := range toks {
			toks[k] = fmt.Sprintf("e%dt%d", e, k)
		}
		base[e] = toks
	}
	record := func(e int32) string {
		toks := append([]string(nil), base[e]...)
		toks = append(toks[:rng.Intn(len(toks))], toks[rng.Intn(len(toks))+1-1:]...) // drop one
		if rng.Intn(3) == 0 {
			toks = append(toks, fmt.Sprintf("x%d", rng.Intn(50)))
		}
		rng.Shuffle(len(toks), func(i, j int) { toks[i], toks[j] = toks[j], toks[i] })
		return strings.Join(toks, " ")
	}
	numBatches := 2 + rng.Intn(3)
	batches := make([]streamBatch, numBatches)
	for i := 0; i < n; i++ {
		e := int32(rng.Intn(numEntities))
		bi := 0
		if i >= n/2 { // first half forms the initial corpus, rest streams in
			bi = 1 + rng.Intn(numBatches-1)
		}
		if bipartite && rng.Intn(2) == 1 {
			batches[bi].b = append(batches[bi].b, record(e))
			batches[bi].eb = append(batches[bi].eb, e)
		} else {
			batches[bi].a = append(batches[bi].a, record(e))
			batches[bi].ea = append(batches[bi].ea, e)
		}
	}
	return batches
}

// flattenScenario derives both sessions' views of the scenario: the
// streaming session's id space (per batch, a-records then b-records, in
// batch order) and the batch session's (all a-records then all b-records).
// It returns the concatenated sources, the ground truth in each id space,
// and the mapping from streaming ids to batch ids.
func flattenScenario(batches []streamBatch) (allA, allB []string, entityStream, entityBatch []int32, toBatch []int32) {
	total := 0
	for _, b := range batches {
		allA = append(allA, b.a...)
		allB = append(allB, b.b...)
		total += len(b.a) + len(b.b)
	}
	toBatch = make([]int32, 0, total)
	posA, posB := int32(0), int32(0)
	for _, b := range batches {
		for k := range b.a {
			entityStream = append(entityStream, b.ea[k])
			toBatch = append(toBatch, posA)
			posA++
		}
		for k := range b.b {
			entityStream = append(entityStream, b.eb[k])
			toBatch = append(toBatch, int32(len(allA))+posB)
			posB++
		}
	}
	entityBatch = make([]int32, total)
	for sid, bid := range toBatch {
		entityBatch[bid] = entityStream[sid]
	}
	return allA, allB, entityStream, entityBatch, toBatch
}

// mappedOrdering orders pairs purely by their ids mapped through m — so
// two sessions over permuted id spaces ask the crowd about corresponding
// pairs in corresponding positions, making crowd cost exactly comparable.
// (Likelihood must not participate: bipartite sessions tokenize in
// different first-appearance orders, so IDF-weighted scores can differ in
// the last ulp and would perturb a likelihood-keyed order.) nil m means
// identity.
func mappedOrdering(m []int32) crowdjoin.Ordering {
	key := func(x int32) int32 {
		if m == nil {
			return x
		}
		return m[x]
	}
	return func(ps []crowdjoin.Pair) []crowdjoin.Pair {
		out := append([]crowdjoin.Pair(nil), ps...)
		sort.SliceStable(out, func(i, j int) bool {
			ai, bi := key(out[i].A), key(out[i].B)
			if ai > bi {
				ai, bi = bi, ai
			}
			aj, bj := key(out[j].A), key(out[j].B)
			if aj > bj {
				aj, bj = bj, aj
			}
			if ai == aj {
				return bi < bj
			}
			return ai < aj
		})
		return out
	}
}

// closeEnough compares likelihoods: exact for unweighted scores, within a
// relative ulp-scale tolerance for IDF scores, whose floating-point
// summation order differs between the two sessions' token numberings.
func closeEnough(a, b float64, idf bool) bool {
	if !idf {
		return a == b
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-12*(1+a+b)
}

// mapClusters translates cluster member ids through m and renormalizes to
// the canonical form (members ascending, clusters by smallest member).
func mapClusters(clusters [][]int32, m []int32) [][]int32 {
	out := make([][]int32, len(clusters))
	for i, c := range clusters {
		mc := make([]int32, len(c))
		for k, o := range c {
			mc[k] = m[o]
		}
		sort.Slice(mc, func(a, b int) bool { return mc[a] < mc[b] })
		out[i] = mc
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// TestStreamThenFinishMatchesBatch is the facade differential: appending
// records mid-session and then running once must produce the same labeled
// pairs, the same clusters, and the same crowd cost as a from-scratch
// batch join over the final corpus — across weightings, shapes,
// strategies, and concurrency levels. Bipartite sessions compare through
// the arrival-order/source-order id permutation, with a mapped ordering on
// both sides so tie-breaking corresponds.
func TestStreamThenFinishMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 16; trial++ {
		n := 24 + rng.Intn(40)
		bipartite := trial%2 == 1
		idf := (trial/2)%2 == 1
		conc := []int{1, 4}[(trial/4)%2]
		strategy := []crowdjoin.Strategy{crowdjoin.SequentialStrategy, crowdjoin.ParallelStrategy}[(trial/8)%2]
		label := fmt.Sprintf("trial=%d n=%d bipartite=%v idf=%v conc=%d strategy=%v", trial, n, bipartite, idf, conc, strategy)

		batches := randomStreamScenario(rng, n, bipartite)
		allA, allB, entityStream, entityBatch, toBatch := flattenScenario(batches)
		matcher := crowdjoin.Matcher{Threshold: 0.3, UseIDF: idf}

		input := crowdjoin.WithTexts(batches[0].a)
		if bipartite {
			input = crowdjoin.WithTextsAcross(batches[0].a, batches[0].b)
		}
		streamCounter := &countingOracle{inner: &crowdjoin.TruthOracle{Entity: entityStream}}
		js, err := crowdjoin.NewJoin(
			input,
			crowdjoin.WithMatcher(matcher),
			crowdjoin.WithOracle(streamCounter),
			crowdjoin.WithOrder(mappedOrdering(toBatch)),
			crowdjoin.WithStrategy(strategy),
			crowdjoin.WithConcurrency(conc),
		)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches[1:] {
			var ar *crowdjoin.AppendResult
			if bipartite {
				ar, err = js.AppendAcross(b.a, b.b)
			} else {
				ar, err = js.Append(b.a...)
			}
			if err != nil {
				t.Fatalf("%s: append: %v", label, err)
			}
			if ar.NumRecords != len(b.a)+len(b.b) {
				t.Fatalf("%s: AppendResult.NumRecords = %d, want %d", label, ar.NumRecords, len(b.a)+len(b.b))
			}
		}
		streamRes, err := js.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}

		batchInput := crowdjoin.WithTexts(allA)
		if bipartite {
			batchInput = crowdjoin.WithTextsAcross(allA, allB)
		}
		batchCounter := &countingOracle{inner: &crowdjoin.TruthOracle{Entity: entityBatch}}
		jb, err := crowdjoin.NewJoin(
			batchInput,
			crowdjoin.WithMatcher(matcher),
			crowdjoin.WithOracle(batchCounter),
			crowdjoin.WithOrder(mappedOrdering(nil)),
			crowdjoin.WithStrategy(strategy),
			crowdjoin.WithConcurrency(conc),
		)
		if err != nil {
			t.Fatal(err)
		}
		batchRes, err := jb.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}

		if len(streamRes.Order) != len(batchRes.Order) {
			t.Fatalf("%s: %d streamed pairs vs %d batch pairs", label, len(streamRes.Order), len(batchRes.Order))
		}
		for k, sp := range streamRes.Order {
			bp := batchRes.Order[k]
			sa, sb := toBatch[sp.A], toBatch[sp.B]
			if sa > sb {
				sa, sb = sb, sa
			}
			ba, bb := bp.A, bp.B
			if ba > bb {
				ba, bb = bb, ba
			}
			if sa != ba || sb != bb || !closeEnough(sp.Likelihood, bp.Likelihood, idf) {
				t.Fatalf("%s: order position %d: streamed (%d,%d)@%v maps to (%d,%d), batch has (%d,%d)@%v",
					label, k, sp.A, sp.B, sp.Likelihood, sa, sb, ba, bb, bp.Likelihood)
			}
			if streamRes.Labels[sp.ID] != batchRes.Labels[bp.ID] {
				t.Fatalf("%s: order position %d labeled %v streamed vs %v batch", label, k, streamRes.Labels[sp.ID], batchRes.Labels[bp.ID])
			}
		}
		if streamCounter.asked != batchCounter.asked {
			t.Fatalf("%s: streamed session asked the crowd %d times, batch %d", label, streamCounter.asked, batchCounter.asked)
		}
		if streamRes.NumCrowdsourced != batchRes.NumCrowdsourced || streamRes.NumDeduced != batchRes.NumDeduced {
			t.Fatalf("%s: crowdsourced/deduced %d/%d streamed vs %d/%d batch", label,
				streamRes.NumCrowdsourced, streamRes.NumDeduced, batchRes.NumCrowdsourced, batchRes.NumDeduced)
		}
		if conc > 1 && streamRes.Components != batchRes.Components {
			t.Fatalf("%s: %d components streamed vs %d batch", label, streamRes.Components, batchRes.Components)
		}
		sc, err := streamRes.Clusters()
		if err != nil {
			t.Fatal(err)
		}
		bc, err := batchRes.Clusters()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mapClusters(sc, toBatch), bc) {
			t.Fatalf("%s: clusters differ after id mapping", label)
		}
	}
}

// dedupingOracle fails the test if any pair is crowdsourced twice across
// the whole session (including across Runs).
type dedupingOracle struct {
	t     *testing.T
	inner crowdjoin.Oracle
	mu    sync.Mutex
	asked map[[2]int32]bool
}

func (o *dedupingOracle) Label(p crowdjoin.Pair) crowdjoin.Label {
	a, b := p.A, p.B
	if a > b {
		a, b = b, a
	}
	o.mu.Lock()
	if o.asked[[2]int32{a, b}] {
		o.t.Errorf("pair (%d,%d) crowdsourced twice", a, b)
	}
	o.asked[[2]int32{a, b}] = true
	o.mu.Unlock()
	return o.inner.Label(p)
}

// TestStreamMidRunsNeverReask: a streaming session that Runs between
// appends (no file journal attached) caches its answers in memory — the
// finishing Run replays them, never re-crowdsourcing a pair, and ends with
// the ground-truth labels on every candidate pair.
func TestStreamMidRunsNeverReask(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, conc := range []int{1, 3} {
		batches := randomStreamScenario(rng, 42, false)
		_, _, entityStream, _, _ := flattenScenario(batches)
		oracle := &dedupingOracle{t: t, inner: &crowdjoin.TruthOracle{Entity: entityStream}, asked: map[[2]int32]bool{}}
		j, err := crowdjoin.NewJoin(
			crowdjoin.WithTexts(batches[0].a),
			crowdjoin.WithOracle(oracle),
			crowdjoin.WithConcurrency(conc),
		)
		if err != nil {
			t.Fatal(err)
		}
		var last *crowdjoin.JoinResult
		for i, b := range batches[1:] {
			if _, err := j.Append(b.a...); err != nil {
				t.Fatal(err)
			}
			if last, err = j.Run(context.Background()); err != nil {
				t.Fatalf("run %d (conc=%d): %v", i, conc, err)
			}
			if i > 0 && last.Replayed == 0 && last.NumCrowdsourced > 0 {
				t.Fatalf("run %d (conc=%d): nothing replayed from the memory cache", i, conc)
			}
		}
		for _, p := range last.Order {
			want := crowdjoin.NonMatching
			if entityStream[p.A] == entityStream[p.B] {
				want = crowdjoin.Matching
			}
			if last.Labels[p.ID] != want {
				t.Fatalf("conc=%d: pair (%d,%d) labeled %v, truth %v", conc, p.A, p.B, last.Labels[p.ID], want)
			}
		}
	}
}

// TestStreamJournalResume: a streaming session cancelled mid-Run resumes
// in a fresh process — same initial corpus, same appends, same journal
// file — with every bought answer replayed and none re-crowdsourced.
func TestStreamJournalResume(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, conc := range []int{1, 2} {
		batches := randomStreamScenario(rng, 36, false)
		_, _, entityStream, _, _ := flattenScenario(batches)
		truth := &crowdjoin.TruthOracle{Entity: entityStream}
		path := t.TempDir() + "/stream.journal"

		open := func() *os.File {
			t.Helper()
			f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		session := func(oracle crowdjoin.Oracle, f *os.File) *crowdjoin.Join {
			t.Helper()
			j, err := crowdjoin.NewJoin(
				crowdjoin.WithTexts(batches[0].a),
				crowdjoin.WithOracle(oracle),
				crowdjoin.WithJournal(f),
				crowdjoin.WithConcurrency(conc),
			)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batches[1:] {
				if _, err := j.Append(b.a...); err != nil {
					t.Fatal(err)
				}
			}
			return j
		}

		f1 := open()
		ctx, cancel := context.WithCancel(context.Background())
		first := &dedupingOracle{t: t, inner: truth, asked: map[[2]int32]bool{}}
		j1 := session(cancelAfter(first, 5, cancel), f1)
		res1, err := j1.Run(ctx)
		cancel()
		if err == nil {
			t.Fatalf("conc=%d: cancelled run returned no error", conc)
		}
		if res1 == nil || res1.NumCrowdsourced == 0 {
			t.Fatalf("conc=%d: cancelled run bought no answers", conc)
		}
		f1.Close()

		f2 := open()
		defer f2.Close()
		second := &dedupingOracle{t: t, inner: truth, asked: first.asked} // shared map: re-asking any pair fails
		j2 := session(second, f2)
		res2, err := j2.Run(context.Background())
		if err != nil {
			t.Fatalf("conc=%d: resumed run: %v", conc, err)
		}
		if res2.Partial {
			t.Fatalf("conc=%d: resumed run still partial", conc)
		}
		if res2.Replayed == 0 {
			t.Fatalf("conc=%d: resumed run replayed nothing", conc)
		}
		for _, p := range res2.Order {
			want := crowdjoin.NonMatching
			if entityStream[p.A] == entityStream[p.B] {
				want = crowdjoin.Matching
			}
			if res2.Labels[p.ID] != want {
				t.Fatalf("conc=%d: pair (%d,%d) labeled %v, truth %v", conc, p.A, p.B, res2.Labels[p.ID], want)
			}
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(raw), "crowdjoin-journal v2"); n != 1 {
			t.Fatalf("conc=%d: journal holds %d v2 headers:\n%s", conc, n, raw)
		}
		for i, b := range batches[1:] {
			if !strings.Contains(string(raw), fmt.Sprintf("r %d\n", len(b.a))) {
				t.Fatalf("conc=%d: journal missing arrival entry for batch %d (%d records):\n%s", conc, i, len(b.a), raw)
			}
		}
	}
}

// TestStreamJournalArrivalValidation pins the v2 fingerprinting: a journal
// whose arrival history does not match the session's appends — wrong batch
// size, or arrivals a non-streaming session never made — is rejected.
func TestStreamJournalArrivalValidation(t *testing.T) {
	header := "crowdjoin-journal v2\nobjects 6\n"
	t.Run("non-streaming session rejects arrivals", func(t *testing.T) {
		buf := bytes.NewBufferString(header + "r 2\nm 0 1\n")
		j, err := crowdjoin.NewJoin(
			crowdjoin.WithTexts(exampleTexts),
			crowdjoin.WithOracle(exampleOracle()),
			crowdjoin.WithJournal(buf),
		)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "arrival") {
			t.Fatalf("err = %v, want arrival rejection", err)
		}
	})
	t.Run("mismatched batch size rejected", func(t *testing.T) {
		buf := bytes.NewBufferString(header + "r 2\nm 0 1\n")
		j, err := crowdjoin.NewJoin(
			crowdjoin.WithTexts(exampleTexts),
			crowdjoin.WithOracle(exampleOracle()),
			crowdjoin.WithJournal(buf),
		)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Append("dyson dc25 vacuum"); err != nil {
			t.Fatal(err)
		}
		if _, err := j.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "arrival") {
			t.Fatalf("err = %v, want arrival-size rejection", err)
		}
	})
	t.Run("matching arrival accepted", func(t *testing.T) {
		buf := bytes.NewBufferString(header + "r 1\nm 0 1\n")
		entity := append(append([]int32(nil), exampleEntity...), 2)
		j, err := crowdjoin.NewJoin(
			crowdjoin.WithTexts(exampleTexts),
			crowdjoin.WithOracle(&crowdjoin.TruthOracle{Entity: entity}),
			crowdjoin.WithJournal(buf),
		)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Append("dyson dc25 vacuum"); err != nil {
			t.Fatal(err)
		}
		if _, err := j.Run(context.Background()); err != nil {
			t.Fatalf("matching arrival rejected: %v", err)
		}
	})
	t.Run("answer beyond running universe rejected", func(t *testing.T) {
		// Object 6 exists only after the arrival: referencing it before the
		// r line is corruption.
		buf := bytes.NewBufferString(header + "m 0 6\nr 1\n")
		entity := append(append([]int32(nil), exampleEntity...), 2)
		j, err := crowdjoin.NewJoin(
			crowdjoin.WithTexts(exampleTexts),
			crowdjoin.WithOracle(&crowdjoin.TruthOracle{Entity: entity}),
			crowdjoin.WithJournal(buf),
		)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Append("dyson dc25 vacuum"); err != nil {
			t.Fatal(err)
		}
		if _, err := j.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "universe") {
			t.Fatalf("err = %v, want universe rejection", err)
		}
	})
	t.Run("torn arrival tail voided", func(t *testing.T) {
		path := t.TempDir() + "/torn.journal"
		if err := os.WriteFile(path, []byte(header+"m 0 1\nr 1"), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		entity := append(append([]int32(nil), exampleEntity...), 2)
		j, err := crowdjoin.NewJoin(
			crowdjoin.WithTexts(exampleTexts),
			crowdjoin.WithOracle(&crowdjoin.TruthOracle{Entity: entity}),
			crowdjoin.WithJournal(f),
		)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Append("dyson dc25 vacuum"); err != nil {
			t.Fatal(err)
		}
		if _, err := j.Run(context.Background()); err != nil {
			t.Fatalf("torn arrival tail not tolerated: %v", err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(raw), "r 1#\n") {
			t.Fatalf("torn fragment not voided:\n%s", raw)
		}
		if !strings.Contains(strings.TrimPrefix(string(raw), header+"m 0 1\nr 1#\n"), "r 1\n") {
			t.Fatalf("arrival not rewritten after voiding:\n%s", raw)
		}
	})
}

// TestStreamJournalV1Compat: the v2 reader must open v1 journals exactly
// as before — entries replayed, no second header written on append.
func TestStreamJournalV1Compat(t *testing.T) {
	path := t.TempDir() + "/v1.journal"
	if err := os.WriteFile(path, []byte("crowdjoin-journal v1\nobjects 6\nm 0 1\nm 1 2\nn 3 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	counter := &countingOracle{inner: exampleOracle()}
	j, err := crowdjoin.NewJoin(
		crowdjoin.WithTexts(exampleTexts),
		crowdjoin.WithOracle(counter),
		crowdjoin.WithJournal(f),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Exactly how many journal entries are consumed depends on the ask
	// schedule (a deduced pair's entry is never demanded); what the v1
	// format guarantees is that entries replay at all.
	if res.Replayed < 1 {
		t.Fatalf("replayed %d v1 answers, want at least 1", res.Replayed)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	content := string(raw)
	if !strings.HasPrefix(content, "crowdjoin-journal v1\n") {
		t.Fatalf("v1 header lost:\n%s", content)
	}
	if strings.Contains(content, "crowdjoin-journal v2") {
		t.Fatalf("v2 header appended to a v1 journal:\n%s", content)
	}
	if counter.asked > 0 && !strings.Contains(content, "\nm ") && !strings.Contains(content, "\nn ") {
		t.Fatalf("fresh answers not appended:\n%s", content)
	}
}

// TestStreamAppendEvents pins the typed progress stream of appends:
// EventRecordAppended per batch (Round = append ordinal, Size = records)
// and EventComponentsMerged when a new record bridges two established
// components, with stable winner/absorbed ids.
func TestStreamAppendEvents(t *testing.T) {
	var events []crowdjoin.Event
	j, err := crowdjoin.NewJoin(
		// Two well-separated entities: "alpha beta gamma" records and
		// "delta epsilon zeta" records form components 0 and 1.
		crowdjoin.WithTexts([]string{
			"alpha beta gamma one",
			"alpha beta gamma two",
			"delta epsilon zeta one",
			"delta epsilon zeta two",
		}),
		crowdjoin.WithOracle(crowdjoin.OracleFunc(func(crowdjoin.Pair) crowdjoin.Label { return crowdjoin.Matching })),
		crowdjoin.WithProgress(func(e crowdjoin.Event) { events = append(events, e) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append("unrelated record entirely"); err != nil {
		t.Fatal(err)
	}
	// The bridge shares tokens with both components.
	ar, err := j.Append("alpha beta gamma delta epsilon zeta")
	if err != nil {
		t.Fatal(err)
	}
	if len(ar.Merges) != 1 || ar.Merges[0] != (crowdjoin.ComponentMerge{Winner: 0, Absorbed: 1}) {
		t.Fatalf("Merges = %v, want [{0 1}]", ar.Merges)
	}
	var appended, merged []crowdjoin.Event
	for _, e := range events {
		switch e.Kind {
		case crowdjoin.EventRecordAppended:
			appended = append(appended, e)
		case crowdjoin.EventComponentsMerged:
			merged = append(merged, e)
		}
	}
	if len(appended) != 2 {
		t.Fatalf("%d EventRecordAppended, want 2", len(appended))
	}
	if appended[0].Round != 0 || appended[0].Size != 1 || appended[1].Round != 1 || appended[1].Size != 1 {
		t.Fatalf("append events carry Round/Size %d/%d and %d/%d, want 0/1 and 1/1",
			appended[0].Round, appended[0].Size, appended[1].Round, appended[1].Size)
	}
	if len(merged) != 1 || merged[0].Component != 0 || merged[0].Absorbed != 1 {
		t.Fatalf("merge events = %+v, want one with Component=0 Absorbed=1", merged)
	}
}

// TestJournallessRerunReplays pins the session answer cache: without a
// file journal, a second Run of the same Join replays every answer the
// first Run bought instead of re-consulting the crowd. (Streaming relies
// on this for Runs that precede the first Append.)
func TestJournallessRerunReplays(t *testing.T) {
	counter := &countingOracle{inner: exampleOracle()}
	j, err := crowdjoin.NewJoin(
		crowdjoin.WithTexts(exampleTexts),
		crowdjoin.WithOracle(counter),
	)
	if err != nil {
		t.Fatal(err)
	}
	first, err := j.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	second, err := j.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if counter.asked != first.NumCrowdsourced {
		t.Errorf("re-Run consulted the crowd %d extra times", counter.asked-first.NumCrowdsourced)
	}
	if second.Replayed != first.NumCrowdsourced {
		t.Errorf("re-Run replayed %d answers, want %d", second.Replayed, first.NumCrowdsourced)
	}
	if !reflect.DeepEqual(first.Labels, second.Labels) {
		t.Error("re-Run labels differ")
	}
}

// TestStreamAppendValidation pins the Append argument contract.
func TestStreamAppendValidation(t *testing.T) {
	jp, err := crowdjoin.NewJoin(
		crowdjoin.WithPairs(4, []crowdjoin.Pair{{ID: 0, A: 0, B: 1, Likelihood: 0.9}}),
		crowdjoin.WithOracle(exampleOracle()),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jp.Append("x"); err == nil {
		t.Fatal("Append accepted on a WithPairs session")
	}
	jt, err := crowdjoin.NewJoin(crowdjoin.WithTexts(exampleTexts), crowdjoin.WithOracle(exampleOracle()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jt.AppendAcross([]string{"x"}, nil); err == nil {
		t.Fatal("AppendAcross accepted on a unipartite session")
	}
	jb, err := crowdjoin.NewJoin(
		crowdjoin.WithTextsAcross(exampleTexts[:3], exampleTexts[3:]),
		crowdjoin.WithOracle(exampleOracle()),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jb.Append("x"); err == nil {
		t.Fatal("Append accepted on a bipartite session")
	}
	if ar, err := jb.AppendAcross(nil, []string{"sony kdl40 tv"}); err != nil {
		t.Fatal(err)
	} else if ar.NumObjects != 7 {
		t.Fatalf("NumObjects = %d, want 7", ar.NumObjects)
	}
}

// TestStreamConcurrentJournalMatchesUnsharded: a streaming session sharded
// four ways on a file journal, Run after every Append, labels, clusters
// and questions exactly as the unsharded session does at every step; its
// journal then resumes a fresh session that asks nothing.
func TestStreamConcurrentJournalMatchesUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 3; trial++ {
		batches := randomStreamScenario(rng, 60, false)
		_, _, entityStream, _, _ := flattenScenario(batches)
		initial := batches[0].a
		var rest []string
		for _, b := range batches[1:] {
			rest = append(rest, b.a...)
		}
		var chunks [][]string
		for len(rest) > 0 {
			n := min(len(rest), 1+rng.Intn(6))
			chunks = append(chunks, rest[:n])
			rest = rest[n:]
		}
		type step struct {
			labels    []crowdjoin.Label
			clusters  [][]int32
			questions int
		}
		dir := t.TempDir()
		session := func(k int, path string, crowd crowdjoin.Oracle) (*crowdjoin.Join, *os.File) {
			t.Helper()
			f, err := crowdjoin.OpenJournalFile(path)
			if err != nil {
				t.Fatal(err)
			}
			j, err := crowdjoin.NewJoin(crowdjoin.WithTexts(initial), crowdjoin.WithOracle(crowd),
				crowdjoin.WithJournal(f), crowdjoin.WithConcurrency(k))
			if err != nil {
				t.Fatal(err)
			}
			return j, f
		}
		run := func(k int) []step {
			t.Helper()
			crowd := &countingOracle{inner: &crowdjoin.TruthOracle{Entity: entityStream}}
			j, f := session(k, fmt.Sprintf("%s/k%d.journal", dir, k), crowd)
			defer f.Close()
			var steps []step
			for i, c := range chunks {
				if _, err := j.Append(c...); err != nil {
					t.Fatal(err)
				}
				before := crowd.asked
				res, err := j.Run(context.Background())
				if err != nil {
					t.Fatalf("trial %d k=%d step %d: %v", trial, k, i, err)
				}
				cl, err := res.Clusters()
				if err != nil {
					t.Fatal(err)
				}
				steps = append(steps, step{res.Labels, cl, crowd.asked - before})
			}
			return steps
		}
		want, got := run(1), run(4)
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("trial %d step %d: k=4 %+v, k=1 %+v", trial, i, got[i], want[i])
			}
		}

		j, f := session(4, dir+"/k4.journal", failingOracle(t))
		defer f.Close()
		for _, c := range chunks {
			if _, err := j.Append(c...); err != nil {
				t.Fatal(err)
			}
		}
		res, err := j.Run(context.Background())
		if err != nil {
			t.Fatalf("trial %d: resumed session: %v", trial, err)
		}
		if last := want[len(want)-1]; !reflect.DeepEqual(res.Labels, last.labels) || res.Replayed != res.NumCrowdsourced {
			t.Fatalf("trial %d: resumed session replayed %d of %d answers, labels equal %v",
				trial, res.Replayed, res.NumCrowdsourced, reflect.DeepEqual(res.Labels, last.labels))
		}
	}
}
