package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValueReady(t *testing.T) {
	var e Engine
	if e.Now() != 0 || e.Pending() != 0 {
		t.Fatalf("zero engine: now=%v pending=%d", e.Now(), e.Pending())
	}
	if e.Step() {
		t.Error("Step on empty engine reported an event")
	}
}

func TestScheduleOrdering(t *testing.T) {
	var e Engine
	var fired []int
	e.Schedule(3, func() { fired = append(fired, 3) })
	e.Schedule(1, func() { fired = append(fired, 1) })
	e.Schedule(2, func() { fired = append(fired, 2) })
	e.Run()
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Errorf("fired = %v, want [1 2 3]", fired)
	}
	if e.Now() != 3 {
		t.Errorf("now = %v, want 3", e.Now())
	}
}

func TestEqualTimesFIFO(t *testing.T) {
	var e Engine
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { fired = append(fired, i) })
	}
	e.Run()
	for i, v := range fired {
		if v != i {
			t.Fatalf("fired = %v, want scheduling order", fired)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	var e Engine
	var times []float64
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(1.5, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 2.5 {
		t.Errorf("times = %v, want [1 2.5]", times)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	var e Engine
	fired := false
	e.Schedule(2, func() {
		e.Schedule(-5, func() { fired = true })
	})
	e.Run()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
	if e.Now() != 2 {
		t.Errorf("now = %v, want 2 (clamped)", e.Now())
	}
}

// TestQuickTimeMonotonic: under random scheduling, observed fire times are
// non-decreasing and equal-time events preserve scheduling order.
func TestQuickTimeMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		var fired []float64
		delays := make([]float64, 30)
		for i := range delays {
			delays[i] = float64(rng.Intn(10))
			d := delays[i]
			e.Schedule(d, func() { fired = append(fired, d) })
		}
		e.Run()
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
