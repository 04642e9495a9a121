package crowd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"crowdjoin/internal/core"
)

func testPairs(n int) []core.Pair {
	out := make([]core.Pair, n)
	for i := range out {
		out[i] = core.Pair{ID: i, A: int32(2 * i), B: int32(2*i + 1), Likelihood: 0.5}
	}
	return out
}

func evenOddTruth(a, b int32) bool { return a/2 == b/2 }

func TestPlatformDeliversAllPairsPerfectly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Model = PerfectModel{}
	cfg.SpammerFraction = 0
	p, err := NewPlatform(evenOddTruth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := testPairs(50)
	p.Publish(pairs)
	if p.Available() != 50 {
		t.Fatalf("Available = %d, want 50", p.Available())
	}
	got := map[int]core.Label{}
	for {
		pair, label, ok := p.NextLabel()
		if !ok {
			break
		}
		got[pair.ID] = label
	}
	if len(got) != 50 {
		t.Fatalf("delivered %d labels, want 50", len(got))
	}
	for id, l := range got {
		if l != core.Matching {
			t.Errorf("pair %d labeled %v, want matching", id, l)
		}
	}
	if p.Available() != 0 {
		t.Errorf("Available after drain = %d, want 0", p.Available())
	}
	if p.Now() <= 0 {
		t.Error("simulated time did not advance")
	}
	if want := (50 + 19) / 20; p.HITs() != want {
		t.Errorf("HITs = %d, want %d", p.HITs(), want)
	}
	if p.AssignmentsDone() != p.HITs()*cfg.Assignments {
		t.Errorf("assignments = %d, want %d", p.AssignmentsDone(), p.HITs()*cfg.Assignments)
	}
	if p.CostCents() != p.HITs()*cfg.Assignments*cfg.RewardCents {
		t.Errorf("cost = %d, want %d", p.CostCents(), p.HITs()*cfg.Assignments*cfg.RewardCents)
	}
}

func TestPlatformAccumulatesPartialBatches(t *testing.T) {
	cfg := DefaultConfig()
	p, err := NewPlatform(evenOddTruth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two publishes of 25 pairs: the batching buffer carries the partial
	// chunks over, so the run ends with ceil(50/20) = 3 HITs, the last one
	// flushed when the platform would otherwise starve.
	p.Publish(testPairs(25))
	if p.HITs() != 1 {
		t.Fatalf("HITs after first publish = %d, want 1 (5 pairs buffered)", p.HITs())
	}
	p.Publish(testPairs(25))
	if p.HITs() != 2 {
		t.Fatalf("HITs after second publish = %d, want 2 (10 pairs buffered)", p.HITs())
	}
	n := 0
	for {
		if _, _, ok := p.NextLabel(); !ok {
			break
		}
		n++
	}
	if n != 50 {
		t.Errorf("delivered %d labels, want 50", n)
	}
	if p.HITs() != 3 {
		t.Errorf("final HITs = %d, want 3", p.HITs())
	}
}

func TestPlatformEmptyNextLabel(t *testing.T) {
	p, err := NewPlatform(evenOddTruth, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := p.NextLabel(); ok {
		t.Error("NextLabel on empty platform returned a label")
	}
}

func TestConfigValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*Config)
	}{
		{"pool smaller than assignments", func(c *Config) { c.Workers = 2 }}, // Assignments is 3
		{"zero batch size", func(c *Config) { c.BatchSize = 0 }},
		{"negative pickup delay", func(c *Config) { c.PickupMeanHours = -1 }},
		{"catch rate above 1", func(c *Config) { c.QualificationCatchRate = 1.5 }},
		{"NaN catch rate", func(c *Config) { c.QualificationCatchRate = math.NaN() }},
	} {
		cfg := DefaultConfig()
		c.edit(&cfg)
		if _, err := NewPlatform(evenOddTruth, cfg); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestPlatformDeterministicBySeed(t *testing.T) {
	run := func() (float64, int) {
		cfg := DefaultConfig()
		p, err := NewPlatform(evenOddTruth, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.Publish(testPairs(60))
		n := 0
		for {
			if _, _, ok := p.NextLabel(); !ok {
				break
			}
			n++
		}
		return p.Now(), n
	}
	t1, n1 := run()
	t2, n2 := run()
	if t1 != t2 || n1 != n2 {
		t.Errorf("equal seeds diverged: (%v,%d) vs (%v,%d)", t1, n1, t2, n2)
	}
}

// TestSequentialSlowerThanParallel reproduces the Table 1 effect: the same
// HITs take roughly an order of magnitude longer when published one at a
// time than when published all at once.
func TestSequentialSlowerThanParallel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SpammerFraction = 0
	p, err := NewPlatform(evenOddTruth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := testPairs(200)
	p.Publish(pairs)
	for {
		if _, _, ok := p.NextLabel(); !ok {
			break
		}
	}
	parallelTime := p.Now()

	seqTime, err := RunHITsSequentially(p.HITLog(), evenOddTruth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("parallel=%0.1fh sequential=%0.1fh ratio=%.1fx", parallelTime, seqTime, seqTime/parallelTime)
	if seqTime < 3*parallelTime {
		t.Errorf("sequential %.1fh not clearly slower than parallel %.1fh", seqTime, parallelTime)
	}
}

// TestQualificationImprovesAccuracy: with spammers in the pool, enabling
// the qualification screen reduces wrong majority labels.
func TestQualificationImprovesAccuracy(t *testing.T) {
	errors := func(qualify bool) int {
		cfg := DefaultConfig()
		cfg.Model = UniformErrorModel{Rate: 0.05}
		cfg.SpammerFraction = 0.5
		cfg.Qualification = qualify
		cfg.Seed = 11
		p, err := NewPlatform(evenOddTruth, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.Publish(testPairs(400))
		wrong := 0
		for {
			_, label, ok := p.NextLabel()
			if !ok {
				break
			}
			if label != core.Matching {
				wrong++
			}
		}
		return wrong
	}
	with, without := errors(true), errors(false)
	t.Logf("wrong labels: qualified=%d unqualified=%d", with, without)
	if with >= without {
		t.Errorf("qualification did not reduce errors: %d vs %d", with, without)
	}
}

// TestSimilarityConfusedModelDirections: lookalike non-matches attract
// false positives; dissimilar matches attract false negatives.
func TestSimilarityConfusedModelDirections(t *testing.T) {
	m := SimilarityConfusedModel{BaseAccuracy: 0.95, MatchConfusion: 0.5, NonMatchConfusion: 0.5}
	rng := rand.New(rand.NewSource(5))
	count := func(p core.Pair, truth bool, want core.Label) int {
		c := 0
		for i := 0; i < 2000; i++ {
			if m.Answer(p, truth, 1, rng) == want {
				c++
			}
		}
		return c
	}
	similarNon := core.Pair{Likelihood: 0.9}
	dissimilarNon := core.Pair{Likelihood: 0.05}
	fpHigh := count(similarNon, false, core.Matching)
	fpLow := count(dissimilarNon, false, core.Matching)
	if fpHigh <= fpLow {
		t.Errorf("false positives: similar=%d dissimilar=%d; similarity should confuse", fpHigh, fpLow)
	}
	similarMatch := core.Pair{Likelihood: 0.9}
	dissimilarMatch := core.Pair{Likelihood: 0.05}
	fnLow := count(similarMatch, true, core.NonMatching)
	fnHigh := count(dissimilarMatch, true, core.NonMatching)
	if fnHigh <= fnLow {
		t.Errorf("false negatives: dissimilar=%d similar=%d; dissimilarity should confuse", fnHigh, fnLow)
	}
}

// TestQuickPlatformAlwaysDeliversEverything: any publish pattern delivers
// every pair exactly once.
func TestQuickPlatformAlwaysDeliversEverything(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Model = UniformErrorModel{Rate: 0.1}
		p, err := NewPlatform(evenOddTruth, cfg)
		if err != nil {
			return false
		}
		total := 0
		for chunk := 0; chunk < 1+rng.Intn(4); chunk++ {
			n := 1 + rng.Intn(30)
			pairs := make([]core.Pair, n)
			for i := range pairs {
				id := total + i
				pairs[i] = core.Pair{ID: id, A: int32(2 * id), B: int32(2*id + 1), Likelihood: 0.5}
			}
			p.Publish(pairs)
			total += n
		}
		seen := map[int]int{}
		for {
			pair, label, ok := p.NextLabel()
			if !ok {
				break
			}
			if label != core.Matching && label != core.NonMatching {
				return false
			}
			seen[pair.ID]++
		}
		if len(seen) != total {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return p.Available() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRunHITsSequentiallyEmpty(t *testing.T) {
	hours, err := RunHITsSequentially(nil, evenOddTruth, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if hours != 0 {
		t.Errorf("empty replay took %v hours, want 0", hours)
	}
}

func TestRunHITsSequentiallyDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	pairs := testPairs(60)
	hits := [][]core.Pair{pairs[:20], pairs[20:40], pairs[40:]}
	a, err := RunHITsSequentially(hits, evenOddTruth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunHITsSequentially(hits, evenOddTruth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("equal-seed replays diverged: %v vs %v", a, b)
	}
}

// TestRecruitTerminatesUnderTotalSpam: with every candidate a spammer and a
// perfect qualification screen, recruiting used to redraw forever and
// NewPlatform hung. The per-slot attempt cap hires the last failing draw
// instead, so the pool still fills (with leaked spammers, as on the real
// platform under heavy spam).
func TestRecruitTerminatesUnderTotalSpam(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SpammerFraction = 1
	cfg.Qualification = true
	cfg.QualificationCatchRate = 1
	cfg.Workers = 5
	p, err := NewPlatform(evenOddTruth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.NumWorkers(); got != cfg.Workers {
		t.Fatalf("recruited %d workers, want %d", got, cfg.Workers)
	}
	for _, w := range p.workers {
		if w.skill >= 0.9 {
			t.Fatalf("worker %d has skill %v; total-spam pool should contain only spammers", w.id, w.skill)
		}
	}
}

// TestRecruitNearTotalSpam: the cap also bounds recruiting when the screen
// almost always catches the (almost always spammer) candidates, and skilled
// candidates still pass when drawn.
func TestRecruitNearTotalSpam(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SpammerFraction = 0.99
	cfg.QualificationCatchRate = 0.999
	cfg.Workers = 8
	p, err := NewPlatform(evenOddTruth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.NumWorkers(); got != cfg.Workers {
		t.Fatalf("recruited %d workers, want %d", got, cfg.Workers)
	}
}

// TestPublishBufferCompacts: the batching buffer must not grow with the
// total publish volume — draining full HITs compacts it in place, so a long
// stream of ragged publishes keeps the backing array near BatchSize instead
// of retaining every labeled prefix.
func TestPublishBufferCompacts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SpammerFraction = 0
	p, err := NewPlatform(evenOddTruth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	chunk := cfg.BatchSize + 3 // ragged: every publish leaves a remainder
	for i := 0; i < 200; i++ {
		pairs := make([]core.Pair, chunk)
		for j := range pairs {
			pairs[j] = core.Pair{ID: next, A: int32(2 * next), B: int32(2*next + 1), Likelihood: 0.5}
			next++
		}
		p.Publish(pairs)
		if len(p.buffer) >= cfg.BatchSize {
			t.Fatalf("publish %d: buffer holds %d pairs, want < BatchSize=%d", i, len(p.buffer), cfg.BatchSize)
		}
	}
	if got, limit := cap(p.buffer), 4*(cfg.BatchSize+chunk); got > limit {
		t.Fatalf("buffer capacity grew to %d after 200 ragged publishes (limit %d): consumed prefix retained", got, limit)
	}
	// Every published pair is still delivered exactly once.
	seen := make(map[int]bool)
	for {
		pair, _, ok := p.NextLabel()
		if !ok {
			break
		}
		if seen[pair.ID] {
			t.Fatalf("pair %d delivered twice", pair.ID)
		}
		seen[pair.ID] = true
	}
	if len(seen) != next {
		t.Fatalf("delivered %d of %d published pairs", len(seen), next)
	}
}
