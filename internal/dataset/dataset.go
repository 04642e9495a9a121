// Package dataset defines entity-resolution datasets and synthetic
// generators reproducing the structural characteristics of the paper's two
// evaluation datasets: Paper (Cora, 997 citation records with a heavy-tailed
// cluster-size distribution, largest cluster 102) and Product (Abt-Buy,
// 1081 + 1092 product records, almost all clusters of size ≤ 2).
//
// The real datasets are not redistributable inside this offline module, so
// the generators synthesize records whose two experiment-relevant properties
// mirror the originals: the ground-truth cluster-size distribution
// (Figure 10), which drives how much transitive relations can save, and a
// similarity signal that separates matches from non-matches imperfectly,
// which drives candidate-set sizes across likelihood thresholds.
package dataset

import (
	"fmt"
	"sort"
	"strings"
)

// Field is one named attribute of a record.
type Field struct {
	Name  string
	Value string
}

// Record is a single object to be resolved.
type Record struct {
	// ID is the dense object id within the dataset.
	ID int32
	// Source identifies where the record came from (e.g. "abt", "buy",
	// "cora").
	Source string
	// Entity is the ground-truth entity id; records match iff their Entity
	// values are equal.
	Entity int32
	// Fields holds the record's attributes in a fixed order.
	Fields []Field
}

// Text returns the record's fields concatenated for similarity computation.
func (r *Record) Text() string {
	var b strings.Builder
	for i, f := range r.Fields {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(f.Value)
	}
	return b.String()
}

// Dataset is a collection of records with ground truth.
type Dataset struct {
	// Name identifies the dataset ("paper" or "product").
	Name string
	// Records holds all records; Records[i].ID == i.
	Records []Record
	// NumEntities is the number of distinct ground-truth entities.
	NumEntities int
	// Bipartite marks join datasets where candidate pairs only span the two
	// sources (Product); dedup datasets (Paper) pair records freely.
	Bipartite bool
	// SourceA and SourceB list record IDs per side for bipartite datasets.
	SourceA, SourceB []int32
}

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.Records) }

// Entities returns the ground-truth entity id per record, indexed by record
// ID.
func (d *Dataset) Entities() []int32 {
	out := make([]int32, len(d.Records))
	for i, r := range d.Records {
		out[i] = r.Entity
	}
	return out
}

// Matches reports whether records a and b refer to the same entity.
func (d *Dataset) Matches(a, b int32) bool {
	return d.Records[a].Entity == d.Records[b].Entity
}

// NumPairs returns the size of the pair universe: all record pairs for dedup
// datasets, A×B for bipartite ones.
func (d *Dataset) NumPairs() int {
	if d.Bipartite {
		return len(d.SourceA) * len(d.SourceB)
	}
	n := len(d.Records)
	return n * (n - 1) / 2
}

// TrueMatchingPairs returns the number of matching pairs in the pair
// universe (within-source matches are excluded for bipartite datasets,
// mirroring how the paper counts Product pairs).
func (d *Dataset) TrueMatchingPairs() int {
	if !d.Bipartite {
		count := 0
		perEntity := map[int32]int{}
		for _, r := range d.Records {
			perEntity[r.Entity]++
		}
		for _, c := range perEntity {
			count += c * (c - 1) / 2
		}
		return count
	}
	perEntityA := map[int32]int{}
	perEntityB := map[int32]int{}
	for _, id := range d.SourceA {
		perEntityA[d.Records[id].Entity]++
	}
	for _, id := range d.SourceB {
		perEntityB[d.Records[id].Entity]++
	}
	count := 0
	for e, ca := range perEntityA {
		count += ca * perEntityB[e]
	}
	return count
}

// Validate checks internal consistency: dense IDs, entity assignments, and
// source partitioning for bipartite datasets.
func (d *Dataset) Validate() error {
	for i, r := range d.Records {
		if int(r.ID) != i {
			return fmt.Errorf("dataset %s: record at index %d has ID %d", d.Name, i, r.ID)
		}
		if r.Entity < 0 || int(r.Entity) >= d.NumEntities {
			return fmt.Errorf("dataset %s: record %d has entity %d outside [0,%d)", d.Name, i, r.Entity, d.NumEntities)
		}
	}
	if d.Bipartite {
		if len(d.SourceA)+len(d.SourceB) != len(d.Records) {
			return fmt.Errorf("dataset %s: sources cover %d of %d records",
				d.Name, len(d.SourceA)+len(d.SourceB), len(d.Records))
		}
		seen := make([]bool, len(d.Records))
		for _, id := range d.SourceA {
			seen[id] = true
		}
		for _, id := range d.SourceB {
			if seen[id] {
				return fmt.Errorf("dataset %s: record %d in both sources", d.Name, id)
			}
			seen[id] = true
		}
	}
	return nil
}

// ClusterSizeHistogram returns the Figure 10 series: for each ground-truth
// cluster size, how many clusters have that size.
func (d *Dataset) ClusterSizeHistogram() map[int]int {
	perEntity := map[int32]int{}
	for _, r := range d.Records {
		perEntity[r.Entity]++
	}
	hist := map[int]int{}
	for _, size := range perEntity {
		hist[size]++
	}
	return hist
}

// SortedHistogram flattens a cluster-size histogram into (size, count) rows
// ordered by size, for rendering.
func SortedHistogram(hist map[int]int) [][2]int {
	sizes := make([]int, 0, len(hist))
	for s := range hist {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	out := make([][2]int, len(sizes))
	for i, s := range sizes {
		out[i] = [2]int{s, hist[s]}
	}
	return out
}
