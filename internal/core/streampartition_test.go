package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestIncrementalPartitionerMatchesBuildPartition is the structural
// differential: after a random pair stream is fed through AddPairs/Grow in
// random batches, the partitioner's stable components and BuildPartition's
// shards over the final universe group the pairs alike — no shard spans
// two components, and no component spans two shards.
func TestIncrementalPartitionerMatchesBuildPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(40) + 2
		ip := NewIncrementalPartitioner(0)
		var order []Pair
		universe := 0
		for universe < n {
			grown := universe + rng.Intn(n-universe) + 1
			ip.Grow(grown)
			universe = grown
			if universe < 2 {
				continue
			}
			batch := make([]Pair, rng.Intn(8))
			for i := range batch {
				a := int32(rng.Intn(universe))
				b := int32(rng.Intn(universe - 1))
				if b >= a {
					b++
				}
				if a > b {
					a, b = b, a
				}
				batch[i] = Pair{ID: len(order), A: a, B: b, Likelihood: rng.Float64()}
				order = append(order, batch[i])
			}
			if _, err := ip.AddPairs(batch); err != nil {
				t.Fatalf("trial %d: AddPairs: %v", trial, err)
			}
		}
		pt, err := BuildPartition(n, order, TriageBands{})
		if err != nil {
			t.Fatalf("trial %d: BuildPartition: %v", trial, err)
		}
		compOfShard := make(map[int]int)
		shardOfComp := make(map[int]int)
		for s, sh := range pt.Shards {
			for _, p := range sh.Global {
				c := ip.ComponentOf(p.A)
				if c < 0 || ip.ComponentOf(p.B) != c {
					t.Fatalf("trial %d: pair (%d,%d) has components %d and %d", trial, p.A, p.B, c, ip.ComponentOf(p.B))
				}
				if got, ok := compOfShard[s]; ok && got != c {
					t.Fatalf("trial %d: shard %d spans components %d and %d", trial, s, got, c)
				}
				if got, ok := shardOfComp[c]; ok && got != s {
					t.Fatalf("trial %d: component %d spans shards %d and %d", trial, c, got, s)
				}
				compOfShard[s], shardOfComp[c] = c, s
			}
		}
		if len(shardOfComp) != len(pt.Shards) {
			t.Fatalf("trial %d: %d components carry pairs, BuildPartition built %d shards", trial, len(shardOfComp), len(pt.Shards))
		}
	}
}

// TestIncrementalPartitionerMerges pins the stable-id semantics: first
// pair opens a component, extension is silent, bridging reports the merge
// with the lower id winning, duplicates report nothing.
func TestIncrementalPartitionerMerges(t *testing.T) {
	ip := NewIncrementalPartitioner(6)
	add := func(a, b int32) []ComponentMerge {
		t.Helper()
		m, err := ip.AddPairs([]Pair{{A: a, B: b}})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if m := add(0, 1); len(m) != 0 {
		t.Fatalf("first pair reported merges %v", m)
	}
	if got := ip.ComponentOf(1); got != 0 {
		t.Fatalf("ComponentOf(1) = %d, want 0", got)
	}
	if got := ip.ComponentOf(2); got != -1 {
		t.Fatalf("ComponentOf(2) = %d, want -1 (pairless)", got)
	}
	if m := add(2, 3); len(m) != 0 {
		t.Fatalf("disjoint pair reported merges %v", m)
	}
	if m := add(1, 4); len(m) != 0 {
		t.Fatalf("extension pair reported merges %v", m)
	}
	if m := add(4, 3); !reflect.DeepEqual(m, []ComponentMerge{{Winner: 0, Absorbed: 1}}) {
		t.Fatalf("bridge reported %v, want [{0 1}]", m)
	}
	for _, o := range []int32{0, 1, 2, 3, 4} {
		if got := ip.ComponentOf(o); got != 0 {
			t.Fatalf("after merge, ComponentOf(%d) = %d, want 0", o, got)
		}
	}
	if m := add(0, 3); len(m) != 0 {
		t.Fatalf("duplicate edge reported merges %v", m)
	}
	if m := add(0, 5); len(m) != 0 {
		t.Fatalf("extension after merge reported merges %v", m)
	}
	// A fresh component after a merge gets the next id, not a recycled one.
	ip.Grow(8)
	if m := add(6, 7); len(m) != 0 {
		t.Fatalf("fresh component reported merges %v", m)
	}
	if got := ip.ComponentOf(7); got != 2 {
		t.Fatalf("ComponentOf(7) = %d, want 2", got)
	}
}

// TestIncrementalPartitionerValidation pins the error contract.
func TestIncrementalPartitionerValidation(t *testing.T) {
	ip := NewIncrementalPartitioner(3)
	if _, err := ip.AddPairs([]Pair{{A: 0, B: 3}}); err == nil {
		t.Fatal("out-of-range pair accepted")
	}
	if _, err := ip.AddPairs([]Pair{{A: 1, B: 1}}); err == nil {
		t.Fatal("self pair accepted")
	}
}
