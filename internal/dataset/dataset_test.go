package dataset

import (
	"math/rand"
	"testing"
	"testing/quick"

	"crowdjoin/internal/similarity"
)

func TestGenerateCoraShape(t *testing.T) {
	d := GenerateCora(DefaultCoraConfig())
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 997 {
		t.Fatalf("records = %d, want 997", d.Len())
	}
	if d.Bipartite {
		t.Error("paper dataset must not be bipartite")
	}
	hist := d.ClusterSizeHistogram()
	maxSize := 0
	for s := range hist {
		if s > maxSize {
			maxSize = s
		}
	}
	if maxSize != 102 {
		t.Errorf("largest cluster = %d, want 102", maxSize)
	}
	if hist[1] < 50 {
		t.Errorf("singleton clusters = %d, want a sizable tail (≥50)", hist[1])
	}
	// The pair universe matches the paper's 997*996/2 = 496,506.
	if got, want := d.NumPairs(), 496506; got != want {
		t.Errorf("NumPairs = %d, want %d", got, want)
	}
	// The 102-cluster alone contributes 102*101/2 = 5151 matching pairs.
	if got := d.TrueMatchingPairs(); got < 5151 {
		t.Errorf("TrueMatchingPairs = %d, want ≥ 5151", got)
	}
}

func TestGenerateCoraDeterministic(t *testing.T) {
	a := GenerateCora(DefaultCoraConfig())
	b := GenerateCora(DefaultCoraConfig())
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Records {
		if a.Records[i].Text() != b.Records[i].Text() || a.Records[i].Entity != b.Records[i].Entity {
			t.Fatalf("record %d differs between equal-seed generations", i)
		}
	}
	cfg := DefaultCoraConfig()
	cfg.Seed = 99
	c := GenerateCora(cfg)
	same := 0
	for i := range a.Records {
		if a.Records[i].Text() == c.Records[i].Text() {
			same++
		}
	}
	if same == a.Len() {
		t.Error("different seeds produced identical datasets")
	}
}

func TestGenerateAbtBuyShape(t *testing.T) {
	d := GenerateAbtBuy(DefaultAbtBuyConfig())
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.SourceA) != 1081 || len(d.SourceB) != 1092 {
		t.Fatalf("sources = %d/%d, want 1081/1092", len(d.SourceA), len(d.SourceB))
	}
	if got, want := d.NumPairs(), 1081*1092; got != want {
		t.Errorf("NumPairs = %d, want %d", got, want)
	}
	hist := d.ClusterSizeHistogram()
	maxSize := 0
	for s := range hist {
		if s > maxSize {
			maxSize = s
		}
	}
	if maxSize > 6 {
		t.Errorf("largest product cluster = %d, want ≤ 6 (Figure 10b)", maxSize)
	}
	if hist[2] < 500 {
		t.Errorf("size-2 clusters = %d, want dominant (≥500)", hist[2])
	}
	// Roughly one-to-one matching: about as many matching pairs as matched
	// entities (paper's Abt-Buy has ~1097 for 1081/1092 records).
	m := d.TrueMatchingPairs()
	if m < 800 || m > 1400 {
		t.Errorf("TrueMatchingPairs = %d, want within [800,1400]", m)
	}
}

// TestCoraSimilaritySeparation: intra-cluster record pairs must score
// clearly higher than cross-cluster pairs on average, with overlapping
// tails — the property that makes likelihood thresholds meaningful.
func TestCoraSimilaritySeparation(t *testing.T) {
	d := GenerateCora(DefaultCoraConfig())
	rng := rand.New(rand.NewSource(7))
	tok := make([][]string, d.Len())
	for i := range d.Records {
		tok[i] = similarity.TokenSet(d.Records[i].Text())
	}
	var matchSum, crossSum float64
	var matchN, crossN int
	var crossAbove3 int
	for trial := 0; trial < 200000; trial++ {
		a, b := rng.Intn(d.Len()), rng.Intn(d.Len())
		if a == b {
			continue
		}
		s := similarity.Jaccard(tok[a], tok[b])
		if d.Matches(int32(a), int32(b)) {
			matchSum += s
			matchN++
		} else {
			crossSum += s
			crossN++
			if s >= 0.3 {
				crossAbove3++
			}
		}
	}
	if matchN < 100 {
		t.Fatalf("only %d matching samples; instance too sparse to judge", matchN)
	}
	matchAvg, crossAvg := matchSum/float64(matchN), crossSum/float64(crossN)
	t.Logf("avg similarity: matching=%.3f cross=%.3f (samples %d/%d), cross≥0.3: %d",
		matchAvg, crossAvg, matchN, crossN, crossAbove3)
	if matchAvg < crossAvg+0.2 {
		t.Errorf("similarity separation too weak: matching %.3f vs cross %.3f", matchAvg, crossAvg)
	}
}

// TestAbtBuySimilaritySeparation: same property for the product dataset,
// restricted to cross-source pairs; hard matches must leave a meaningful
// fraction of matching pairs below 0.3 (the paper's recall cap).
func TestAbtBuySimilaritySeparation(t *testing.T) {
	d := GenerateAbtBuy(DefaultAbtBuyConfig())
	tok := make([][]string, d.Len())
	for i := range d.Records {
		tok[i] = similarity.TokenSet(d.Records[i].Text())
	}
	var matchBelow3, matchTotal int
	for _, a := range d.SourceA {
		for _, b := range d.SourceB {
			if d.Records[a].Entity != d.Records[b].Entity {
				continue
			}
			matchTotal++
			if similarity.Jaccard(tok[a], tok[b]) < 0.3 {
				matchBelow3++
			}
		}
	}
	frac := float64(matchBelow3) / float64(matchTotal)
	t.Logf("matching pairs below 0.3: %d/%d (%.1f%%)", matchBelow3, matchTotal, 100*frac)
	if frac < 0.1 || frac > 0.6 {
		t.Errorf("hard-match fraction %.2f outside [0.1,0.6]; recall shape won't mirror the paper", frac)
	}
}

func TestRecordAccessors(t *testing.T) {
	r := Record{Fields: []Field{{Name: "a", Value: "x"}, {Name: "b", Value: "y"}}}
	if r.Text() != "x y" {
		t.Errorf("Text = %q, want %q", r.Text(), "x y")
	}
}

func TestSortedHistogram(t *testing.T) {
	h := map[int]int{3: 1, 1: 5, 2: 2}
	rows := SortedHistogram(h)
	want := [][2]int{{1, 5}, {2, 2}, {3, 1}}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("rows = %v, want %v", rows, want)
		}
	}
}

// TestQuickCoraSizesSumToRecords: for random configs, cluster sizes always
// sum to the requested record count and the largest cluster is as asked.
func TestQuickCoraSizesSumToRecords(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultCoraConfig()
		cfg.Records = 100 + rng.Intn(900)
		cfg.LargestCluster = 10 + rng.Intn(cfg.Records/4)
		cfg.Seed = seed
		sizes := coraClusterSizes(cfg)
		total, largest := 0, 0
		for _, s := range sizes {
			if s <= 0 {
				return false
			}
			total += s
			if s > largest {
				largest = s
			}
		}
		return total == cfg.Records && largest == cfg.LargestCluster
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAbtBuyExactCounts: arbitrary source sizes are met exactly.
func TestQuickAbtBuyExactCounts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultAbtBuyConfig()
		cfg.AbtRecords = 200 + rng.Intn(1000)
		cfg.BuyRecords = 200 + rng.Intn(1000)
		cfg.Seed = seed
		d := GenerateAbtBuy(cfg)
		return d.Validate() == nil &&
			len(d.SourceA) == cfg.AbtRecords &&
			len(d.SourceB) == cfg.BuyRecords
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
