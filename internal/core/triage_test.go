package core

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestTriageBandsClassify(t *testing.T) {
	var off TriageBands
	if off.Enabled() {
		t.Fatal("zero bands report enabled")
	}
	if err := off.Validate(); err != nil {
		t.Fatalf("zero bands invalid: %v", err)
	}
	if got := off.Classify(0.99); got != Unlabeled {
		t.Fatalf("disabled bands classified %v", got)
	}

	b := TriageBands{AcceptAbove: 0.8, RejectBelow: 0.2}
	if !b.Enabled() {
		t.Fatal("bands not enabled")
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		lik  float64
		want Label
	}{
		{0.9, Matching}, {0.8, Matching}, {0.79, Unlabeled},
		{0.5, Unlabeled}, {0.21, Unlabeled}, {0.2, NonMatching}, {0.05, NonMatching},
	}
	for _, c := range cases {
		if got := b.Classify(c.lik); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.lik, got, c.want)
		}
	}

	// Accept-only bands: nothing is ever rejected (no likelihood <= 0).
	acceptOnly := TriageBands{AcceptAbove: 0.7}
	if err := acceptOnly.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := acceptOnly.Classify(0.1); got != Unlabeled {
		t.Fatalf("accept-only bands rejected: %v", got)
	}

	for _, bad := range []TriageBands{
		{AcceptAbove: 1.2},
		{AcceptAbove: 0.5, RejectBelow: 0.5},
		{AcceptAbove: 0.3, RejectBelow: 0.6},
		{AcceptAbove: 0.5, RejectBelow: -0.1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("bands %+v validated", bad)
		}
	}
}

// TestBuildTriagedPartition pins BuildPartition's thinned-graph sharding on
// a hand-built case: rejected edges do not connect components, an
// in-component rejected pair stays with its component, and cross-component
// rejected pairs pool into one residue shard with its own object numbering.
func TestBuildTriagedPartition(t *testing.T) {
	bands := TriageBands{AcceptAbove: 0.8, RejectBelow: 0.2}
	// Thinned components: {0,1,2} (via 0-1 accepted, 1-2 uncertain) and
	// {3,4}. The rejected 2-3 bridges them (residue); the rejected 0-2 stays
	// inside the first component.
	order := []Pair{
		{ID: 0, A: 0, B: 1, Likelihood: 0.9},
		{ID: 1, A: 1, B: 2, Likelihood: 0.5},
		{ID: 2, A: 3, B: 4, Likelihood: 0.6},
		{ID: 3, A: 2, B: 3, Likelihood: 0.1},
		{ID: 4, A: 0, B: 2, Likelihood: 0.15},
	}
	pt, err := BuildPartition(5, order, bands)
	if err != nil {
		t.Fatal(err)
	}
	if len(pt.Shards) != 3 {
		t.Fatalf("%d shards, want 3 (two components + residue)", len(pt.Shards))
	}

	// Component {0,1,2} holds pairs 0, 1 and the in-component rejected 4.
	first := pt.Shards[0]
	if objs := shardObjects(t, &first); !reflect.DeepEqual(objs, []int32{0, 1, 2}) {
		t.Fatalf("first shard objects %v", objs)
	}
	if got := pairIDs(first.Global); !reflect.DeepEqual(got, []int{0, 1, 4}) {
		t.Fatalf("first shard global pairs %v, want [0 1 4]", got)
	}
	// Component {3,4} holds pair 2 only.
	second := pt.Shards[1]
	if objs := shardObjects(t, &second); !reflect.DeepEqual(objs, []int32{3, 4}) || len(second.Order) != 1 || second.Global[0].ID != 2 {
		t.Fatalf("second shard: objects %v, pairs %v", objs, second.Global)
	}
	// Residue shard holds the bridging rejected pair, with fresh local ids
	// even though its objects also live in the other shards.
	residue := pt.Shards[2]
	if got := pairIDs(residue.Global); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("residue shard pairs %v, want [3]", got)
	}
	if objs := shardObjects(t, &residue); !reflect.DeepEqual(objs, []int32{2, 3}) || residue.NumObjects != 2 {
		t.Fatalf("residue shard objects %v (NumObjects %d)", objs, residue.NumObjects)
	}
	if lp := residue.Order[0]; lp.A != 0 || lp.B != 1 || lp.Likelihood != 0.1 {
		t.Fatalf("residue local pair %+v", lp)
	}

	// Every shard's local pairs must round-trip through Locate and Global.
	for _, p := range order {
		si, local := pt.Locate(p.ID)
		if got := pt.Shards[si].Global[local]; got != p {
			t.Fatalf("Locate(%d) -> shard %d local %d = %+v, want %+v", p.ID, si, local, got, p)
		}
	}

	// Disabled bands degrade to the plain partition: one shard here, since
	// the rejected edges connect everything.
	plain, err := BuildPartition(5, order, TriageBands{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Shards) != 1 {
		t.Fatalf("disabled bands built %d shards, want 1", len(plain.Shards))
	}

	if _, err := BuildPartition(5, order, TriageBands{AcceptAbove: 2}); err == nil {
		t.Fatal("invalid bands accepted")
	}
}

func pairIDs(ps []Pair) []int {
	ids := make([]int, len(ps))
	for i, p := range ps {
		ids[i] = p.ID
	}
	return ids
}

// TestTriagedPartitionLabelEquivalence: labeling the triaged partition
// shard-by-shard with machine answers for banded pairs must reproduce the
// unsharded labels and crowd cost on randomized cases — the contract that
// lets the facade hand BuildPartition its triage bands. (The full-session
// version lives in the root package's tests; this one pins the partition
// itself via the sequential driver.)
func TestTriagedPartitionLabelEquivalence(t *testing.T) {
	bands := TriageBands{AcceptAbove: 0.75, RejectBelow: 0.3}
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 12; trial++ {
		numObjects, order, truth := randomShardWorkload(rng)
		// Machine-first oracle: banded pairs answer from the bands, like the
		// facade's triage wrapper.
		tri := OracleFunc(func(p Pair) Label {
			if l := bands.Classify(p.Likelihood); l != Unlabeled {
				return l
			}
			return truth.Label(p)
		})

		base, err := LabelSequentialRun(numObjects, order, tri, Rules{}, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		likByID := make([]float64, len(order))
		for _, p := range order {
			likByID[p.ID] = p.Likelihood
		}
		pt, err := BuildPartition(numObjects, order, bands)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3} {
			res, err := LabelPartitionedSequentialRun(pt, tri, Rules{}, k, RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base.Labels, res.Labels) {
				t.Fatalf("trial %d k=%d: labels diverged", trial, k)
			}
			// Crowd cost: the same uncertain pairs are consulted. (Consulted
			// banded pairs differ only in deduced-vs-asked attribution of
			// residue pairs; uncertain pairs behave identically.)
			for id := range base.Crowdsourced {
				if bands.Classify(likByID[id]) != Unlabeled {
					continue
				}
				if base.Crowdsourced[id] != res.Crowdsourced[id] {
					t.Fatalf("trial %d k=%d: uncertain pair %d crowdsourced %v vs %v",
						trial, k, id, base.Crowdsourced[id], res.Crowdsourced[id])
				}
			}
		}
	}
}
