package core

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// chainShards builds n components of two pairs each, (3i, 3i+1) and
// (3i+1, 3i+2), so every component's first round holds both pairs.
func chainShards(t *testing.T, n int) *Partition {
	t.Helper()
	var order []Pair
	for i := int32(0); i < int32(n); i++ {
		order = append(order,
			Pair{ID: len(order), A: 3 * i, B: 3*i + 1},
			Pair{ID: len(order) + 1, A: 3*i + 1, B: 3*i + 2})
	}
	pt, err := BuildPartition(3*n, order, TriageBands{})
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// TestRouterShutdownSettleOrder pins the determinism of a cancelled
// routed run: the balanced router's workers answer the first question of
// every round, the second never comes, and the cancelled adapter must
// serve the answered questions round by round in publish order. (The
// router's live set was once a map, so this order was randomized per run.)
func TestRouterShutdownSettleOrder(t *testing.T) {
	const n = 8
	pt := chainShards(t, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var firsts sync.WaitGroup
	firsts.Add(n)
	oracle := BatchOracleFunc(func(ps []Pair) []Label {
		if ps[0].A%3 == 0 {
			firsts.Done()
			return []Label{Matching}
		}
		<-ctx.Done() // the second question of a round is never answered
		return nil
	})
	// 2n workers: every question is claimed at once, so the order in which
	// rounds were cut short is up to the scheduler.
	rp := NewRoundPlatform(pt, oracle, 2*n, true, RunOpts{Ctx: ctx})
	defer rp.Close()
	for i := range pt.Shards {
		rp.Publish(pt.Shards[i].Global)
	}
	firsts.Wait()
	cancel()
	if held := rp.Held(); held != n {
		t.Fatalf("cancelled adapter holds %d answers, want %d", held, n)
	}
	for i := 0; i < n; i++ {
		p, l, ok := rp.NextLabel()
		if want := pt.Shards[i].Global[0]; !ok || p != want || l != Matching {
			t.Fatalf("answer %d is (%v, %v, %v), want (%v, matching) of round %d", i, p, l, ok, want, i)
		}
	}
	if _, _, ok := rp.NextLabel(); ok {
		t.Fatal("cancelled adapter served more than it held")
	}
}

// TestRouterSettleRemovesInOrder checks that rounds settling out of
// publish order keep the remaining live list in publish order, that a
// settled round's answers are queued whole, and that settling a round
// twice is a no-op.
func TestRouterSettleRemovesInOrder(t *testing.T) {
	pt := chainShards(t, 4)
	rp := NewRoundPlatform(pt, nil, 1, false, RunOpts{})
	defer rp.Close()
	rounds := make([]*round, 4)
	for i := range rounds {
		rounds[i] = &round{shard: i, pairs: pt.Shards[i].Global, answers: []Label{Matching, NonMatching}}
		rp.live = append(rp.live, rounds[i])
	}
	rp.mu.Lock()
	rp.settleLocked(rounds[2], false)
	rp.mu.Unlock()
	if want := []*round{rounds[0], rounds[1], rounds[3]}; !reflect.DeepEqual(rp.live, want) {
		t.Fatalf("live holds shards %v, want 0, 1, 3", shardsOf(rp.live))
	}
	if !reflect.DeepEqual(rp.ready, pt.Shards[2].Global) || !reflect.DeepEqual(rp.answers, []Label{Matching, NonMatching}) {
		t.Fatalf("settled answers %v %v, want round 2's", rp.ready, rp.answers)
	}
	rp.mu.Lock()
	rp.settleLocked(rounds[2], false)
	rp.mu.Unlock()
	if len(rp.ready) != 2 || len(rp.live) != 3 {
		t.Fatalf("second settle changed the adapter: %d answers, %d live rounds", len(rp.ready), len(rp.live))
	}
}

func shardsOf(rounds []*round) []int {
	out := make([]int, len(rounds))
	for i, rd := range rounds {
		out[i] = rd.shard
	}
	return out
}
