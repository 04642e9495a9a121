package core

import "crowdjoin/internal/clustergraph"

// incrementalDeducer maintains the crowd-label graph together with a
// per-object index of candidate pairs, so that after each crowd answer
// only the pairs that might have become deducible are re-checked, instead
// of the whole order.
//
// Soundness: inserting a matching label only changes deductions involving
// the merged cluster (same-cluster queries inside it, edge queries from
// it); inserting a non-matching label only adds deductions between the two
// newly connected clusters. Every such pair touches a member of those
// clusters, which the graph's member cycles list, so checking pairs
// incident to them covers all newly deducible pairs.
type incrementalDeducer struct {
	g *clustergraph.Graph
	// byObject[o] lists order positions of pairs touching object o.
	byObject [][]int32
}

func newIncrementalDeducer(numObjects int, order []Pair, g *clustergraph.Graph) *incrementalDeducer {
	d := &incrementalDeducer{
		g:        g,
		byObject: make([][]int32, numObjects),
	}
	for pos, p := range order {
		d.byObject[p.A] = append(d.byObject[p.A], int32(pos))
		d.byObject[p.B] = append(d.byObject[p.B], int32(pos))
	}
	return d
}

// insert records a crowd label and appends to buf the order positions of
// pairs that may have become deducible, returning the extended buffer. On
// a conflicting label the graph is unchanged and the error is returned for
// the caller's conflict policy.
func (d *incrementalDeducer) insert(a, b int32, matching bool, buf []int32) ([]int32, error) {
	ra, rb := d.g.Root(a), d.g.Root(b)
	if matching {
		if ra == rb {
			return buf, nil // already implied; no new deductions
		}
		if err := d.g.InsertMatching(a, b); err != nil {
			return buf, err
		}
		// The merged cycle, walked from ra, lists a's old cluster and then
		// b's.
		return d.appendIncident(buf, ra), nil
	}
	if ra == rb {
		// Conflict: matching by deduction. Leave graph untouched.
		return buf, d.g.InsertNonMatching(a, b)
	}
	if d.g.HasEdge(a, b) {
		return buf, nil // already implied
	}
	if err := d.g.InsertNonMatching(a, b); err != nil {
		return buf, err
	}
	// Newly deducible pairs span the two clusters; every one of them
	// touches the smaller side.
	small := ra
	if d.g.ClusterSize(rb) < d.g.ClusterSize(ra) {
		small = rb
	}
	return d.appendIncident(buf, small), nil
}

// appendIncident appends the positions of the pairs touching the members
// of start's cluster, walking its member cycle from start.
func (d *incrementalDeducer) appendIncident(buf []int32, start int32) []int32 {
	for o := start; ; {
		buf = append(buf, d.byObject[o]...)
		if o = d.g.NextMember(o); o == start {
			return buf
		}
	}
}
