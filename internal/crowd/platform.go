package crowd

import (
	"fmt"
	"math/rand"

	"crowdjoin/internal/core"
	"crowdjoin/internal/sim"
)

// Platform is a discrete-event simulation of an AMT-style crowdsourcing
// platform. It implements core.Platform: published pairs are chunked into
// HITs, each HIT is completed by cfg.Assignments distinct workers whose
// pickup and service delays unfold on the simulation clock, and per-pair
// majority votes are delivered through NextLabel.
type Platform struct {
	cfg    Config
	engine *sim.Engine
	rng    *rand.Rand
	truth  func(a, b int32) bool

	workers []*worker
	open    []*hit // HITs with unclaimed assignments
	// hitPool recycles completed hit structs (and their votes/workers
	// slices), so a long run allocates one hit per concurrently open HIT
	// rather than one per published HIT.
	hitPool []*hit
	results []labeledPair
	// buffer accumulates published pairs until a full HIT's worth is
	// available; a partial HIT is flushed only when the platform would
	// otherwise starve. This mirrors how iterative publication still
	// achieves ~ceil(pairs/BatchSize) HITs in the paper's Table 2.
	buffer []core.Pair

	hitLog      [][]core.Pair
	published   int
	delivered   int
	assignments int
}

type labeledPair struct {
	pair  core.Pair
	label core.Label
}

type worker struct {
	id        int
	skill     float64
	busy      bool
	scheduled bool
}

type hit struct {
	pairs     []core.Pair
	claimed   int
	remaining int
	votes     []int   // per pair: count of "matching" answers
	workers   []int32 // ids of workers who claimed an assignment
	answered  int     // assignments submitted
}

// workedBy reports whether worker w already claimed an assignment on h.
// The list is at most Assignments long, so a linear scan beats the map of
// HIT pointers it replaced — and, unlike the map, it lets completed hit
// structs be pooled without leaving stale entries behind.
func (h *hit) workedBy(w int) bool {
	for _, id := range h.workers {
		if int(id) == w {
			return true
		}
	}
	return false
}

// NewPlatform builds a platform over the given ground truth.
func NewPlatform(truth func(a, b int32) bool, cfg Config) (*Platform, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Model == nil {
		cfg.Model = PerfectModel{}
	}
	p := &Platform{
		cfg:    cfg,
		engine: &sim.Engine{},
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		truth:  truth,
	}
	p.recruitWorkers()
	return p, nil
}

// maxQualificationAttempts caps how many candidate draws fill one pool
// slot. After that many consecutive screen failures the last draw is hired
// anyway, so recruiting terminates even when every candidate is a spammer
// and the screen catches all of them (SpammerFraction and
// QualificationCatchRate both 1).
const maxQualificationAttempts = 32

// recruitWorkers fills the pool, applying the qualification screen: skilled
// workers always pass; spammers fail with QualificationCatchRate and are
// replaced by a fresh draw (bounded attempts per slot, so heavy spam still
// leaks through a little, as on the real platform).
func (p *Platform) recruitWorkers() {
	for len(p.workers) < p.cfg.Workers {
		skill := p.drawSkill()
		for attempt := 1; attempt < maxQualificationAttempts && p.failsScreen(skill); attempt++ {
			skill = p.drawSkill() // failed the three-pair screen; redraw
		}
		p.workers = append(p.workers, &worker{id: len(p.workers), skill: skill})
	}
}

// drawSkill samples one candidate worker's skill.
func (p *Platform) drawSkill() float64 {
	if p.rng.Float64() < p.cfg.SpammerFraction {
		return 0.35 + 0.2*p.rng.Float64()
	}
	return 1.0
}

// failsScreen reports whether a candidate of the given skill fails the
// qualification screen.
func (p *Platform) failsScreen(skill float64) bool {
	return p.cfg.Qualification && skill < 0.9 && p.rng.Float64() < p.cfg.QualificationCatchRate
}

// Publish implements core.Platform: pairs accumulate in the batching
// buffer, and every full BatchSize chunk becomes a HIT immediately. A
// trailing partial chunk stays buffered until more pairs arrive or the
// platform runs out of other work (see NextLabel).
//
// The assembly is batched: all full chunks of one Publish call share a
// single backing allocation, hit structs come from the pool, and the
// idle-worker kick runs once per call instead of once per HIT (the extra
// kicks were no-ops anyway — the first kick schedules every idle worker).
// The buffer is compacted in place after draining full chunks (instead of
// re-slicing past them), so a long publish stream never pins the consumed
// prefix of the backing array for the life of the run.
func (p *Platform) Publish(ps []core.Pair) {
	p.published += len(ps)
	p.buffer = append(p.buffer, ps...)
	full := len(p.buffer) / p.cfg.BatchSize
	if full == 0 {
		return
	}
	consumed := full * p.cfg.BatchSize
	backing := make([]core.Pair, consumed)
	copy(backing, p.buffer[:consumed])
	for i := 0; i < full; i++ {
		p.addHIT(backing[i*p.cfg.BatchSize : (i+1)*p.cfg.BatchSize : (i+1)*p.cfg.BatchSize])
	}
	n := copy(p.buffer, p.buffer[consumed:])
	p.buffer = p.buffer[:n]
	p.kickIdleWorkers()
}

// flushPartial turns any buffered pairs into a final, partially filled HIT.
func (p *Platform) flushPartial() {
	if len(p.buffer) == 0 {
		return
	}
	hitPairs := make([]core.Pair, len(p.buffer))
	copy(hitPairs, p.buffer)
	p.buffer = p.buffer[:0]
	p.addHIT(hitPairs)
	p.kickIdleWorkers()
}

// PublishAsOneHIT publishes all pairs as a single HIT regardless of
// BatchSize, bypassing the batching buffer; the sequential-HIT replay of
// Table 1 uses it.
func (p *Platform) PublishAsOneHIT(ps []core.Pair) {
	if len(ps) == 0 {
		return
	}
	p.published += len(ps)
	p.addHIT(append([]core.Pair(nil), ps...))
	p.kickIdleWorkers()
}

// addHIT opens a HIT over pairs (ownership of the slice passes to the HIT
// log). The caller kicks the idle workers once all of a publish's HITs are
// added.
func (p *Platform) addHIT(pairs []core.Pair) {
	var h *hit
	if n := len(p.hitPool); n > 0 {
		h = p.hitPool[n-1]
		p.hitPool = p.hitPool[:n-1]
		h.claimed = 0
		h.answered = 0
		h.workers = h.workers[:0]
		if cap(h.votes) >= len(pairs) {
			h.votes = h.votes[:len(pairs)]
			clear(h.votes)
		} else {
			h.votes = make([]int, len(pairs))
		}
	} else {
		h = &hit{votes: make([]int, len(pairs))}
	}
	h.pairs = pairs
	h.remaining = p.cfg.Assignments
	p.open = append(p.open, h)
	p.hitLog = append(p.hitLog, pairs)
}

// kickIdleWorkers schedules a pickup attempt for every idle, unscheduled
// worker; pickup delays are exponential.
func (p *Platform) kickIdleWorkers() {
	for _, w := range p.workers {
		if w.busy || w.scheduled {
			continue
		}
		w.scheduled = true
		w := w
		p.engine.Schedule(p.exp(p.cfg.PickupMeanHours), func() { p.tryPickup(w) })
	}
}

func (p *Platform) exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return p.rng.ExpFloat64() * mean
}

// tryPickup lets w claim an assignment on the first open HIT it has not
// already worked on. If nothing is claimable the worker idles until the
// next publish.
func (p *Platform) tryPickup(w *worker) {
	w.scheduled = false
	if w.busy {
		return
	}
	for _, h := range p.open {
		if h.claimed >= p.cfg.Assignments || h.workedBy(w.id) {
			continue
		}
		h.claimed++
		w.busy = true
		h.workers = append(h.workers, int32(w.id))
		service := p.cfg.ServiceFloorHours + p.exp(p.cfg.ServiceMeanHours)
		h := h
		p.engine.Schedule(service, func() { p.submit(w, h) })
		return
	}
}

// submit records w's answers for every pair of h and finalizes the HIT when
// its last assignment lands.
func (p *Platform) submit(w *worker, h *hit) {
	for i, pair := range h.pairs {
		ans := p.cfg.Model.Answer(pair, p.truth(pair.A, pair.B), w.skill, p.rng)
		if ans == core.Matching {
			h.votes[i]++
		}
	}
	h.answered++
	h.remaining--
	p.assignments++
	if h.remaining == 0 {
		p.finalize(h)
	}
	w.busy = false
	// An engaged worker grabs the next assignment quickly; only a worker
	// who finds the queue empty falls back to the slow discovery delay on
	// the next publish (kickIdleWorkers).
	w.scheduled = true
	p.engine.Schedule(p.exp(p.cfg.EngagedPickupHours), func() { p.tryPickup(w) })
}

// finalize closes h and labels each of its pairs by majority vote over
// its assignments, the paper's only aggregation; a tie (possible only with
// an even Assignments) goes to NonMatching, the conservative choice for
// joins.
func (p *Platform) finalize(h *hit) {
	for i := range p.open {
		if p.open[i] == h {
			// Order-preserving removal: pickup priority is front-of-queue,
			// and changing it would change the simulation's outcomes.
			p.open = append(p.open[:i], p.open[i+1:]...)
			break
		}
	}
	for i, pair := range h.pairs {
		label := core.NonMatching
		if 2*h.votes[i] > h.answered {
			label = core.Matching
		}
		p.results = append(p.results, labeledPair{pair: pair, label: label})
	}
	h.pairs = nil // retained by hitLog, not the pool
	p.hitPool = append(p.hitPool, h)
}

// NextLabel implements core.Platform: it advances simulated time until the
// next HIT completes and returns its pairs one at a time. When the event
// queue drains with pairs still buffered, the partial HIT is flushed so
// every published pair is eventually labeled.
func (p *Platform) NextLabel() (core.Pair, core.Label, bool) {
	for len(p.results) == 0 {
		if p.engine.Step() {
			continue
		}
		if len(p.buffer) == 0 {
			return core.Pair{}, core.Unlabeled, false
		}
		p.flushPartial()
	}
	r := p.results[0]
	p.results = p.results[1:]
	p.delivered++
	return r.pair, r.label, true
}

// Available implements core.Platform: published pairs whose label has not
// been delivered yet.
func (p *Platform) Available() int { return p.published - p.delivered }

// Now returns the current simulated time in hours.
func (p *Platform) Now() float64 { return p.engine.Now() }

// HITs returns the number of HITs published so far.
func (p *Platform) HITs() int { return len(p.hitLog) }

// HITLog returns the pair groups of every published HIT, in publish order.
func (p *Platform) HITLog() [][]core.Pair { return p.hitLog }

// CostCents returns the total payment: one reward per assignment.
func (p *Platform) CostCents() int { return p.HITs() * p.cfg.Assignments * p.cfg.RewardCents }

// AssignmentsDone returns the number of submitted assignments.
func (p *Platform) AssignmentsDone() int { return p.assignments }

// NumWorkers returns the size of the recruited pool.
func (p *Platform) NumWorkers() int { return len(p.workers) }

// RunHITsSequentially replays the given HITs one at a time on a fresh
// platform — the paper's Non-Parallel baseline in Table 1, which "used the
// same HITs as Parallel(ID) but published a single one per iteration" — and
// returns the total completion time in hours.
func RunHITsSequentially(hits [][]core.Pair, truth func(a, b int32) bool, cfg Config) (float64, error) {
	p, err := NewPlatform(truth, cfg)
	if err != nil {
		return 0, err
	}
	for _, h := range hits {
		p.PublishAsOneHIT(h)
		for i := 0; i < len(h); i++ {
			if _, _, ok := p.NextLabel(); !ok {
				return 0, fmt.Errorf("crowd: platform stalled replaying HIT of %d pairs", len(h))
			}
		}
	}
	return p.Now(), nil
}
