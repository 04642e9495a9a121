package main

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"crowdjoin"
	"crowdjoin/internal/dataset"
	"crowdjoin/internal/metrics"
)

// threshold is the matcher threshold of every workload (the paper's
// Paper@0.3 setting).
const threshold = 0.3

// subSeed derives the generator seed of item i of a run's inputs, so that
// distinct run seeds draw disjoint corpora.
func subSeed(seed int64, i int) int64 { return seed*1_000_000 + int64(i) }

// corpus is a generated record set with its ground truth. For bipartite
// corpora, objects 0..nA-1 are source A and the rest source B.
type corpus struct {
	texts       []string
	entity      []int32
	nA          int // source A size; 0 for a deduplication corpus
	trueMatches int
}

// paperCorpus generates a Cora-style citation corpus. The largest cluster
// scales down with small corpora the way cmd/datagen scales it.
func paperCorpus(records int, seed int64) *corpus {
	cfg := dataset.DefaultCoraConfig()
	cfg.Records = records
	cfg.LargestCluster = min(cfg.LargestCluster, max(2, records/4))
	cfg.Seed = seed
	d := dataset.GenerateCora(cfg)
	c := &corpus{entity: d.Entities(), trueMatches: d.TrueMatchingPairs()}
	for i := range d.Records {
		c.texts = append(c.texts, d.Records[i].Text())
	}
	return c
}

// productCorpus generates an Abt-Buy-style two-source product corpus.
func productCorpus(perSource int, seed int64) *corpus {
	cfg := dataset.DefaultAbtBuyConfig()
	cfg.AbtRecords, cfg.BuyRecords = perSource, perSource
	cfg.Seed = seed
	d := dataset.GenerateAbtBuy(cfg)
	c := &corpus{nA: len(d.SourceA), trueMatches: d.TrueMatchingPairs()}
	for _, id := range append(append([]int32(nil), d.SourceA...), d.SourceB...) {
		c.texts = append(c.texts, d.Records[id].Text())
		c.entity = append(c.entity, d.Records[id].Entity)
	}
	return c
}

// truth is the corpus's perfect crowd.
func (c *corpus) truth() *crowdjoin.TruthOracle { return &crowdjoin.TruthOracle{Entity: c.entity} }

// f1 scores clusters pairwise against the ground truth.
func (c *corpus) f1(clusters [][]int32) float64 {
	return metrics.EvaluateClusters(clusters, c.entity, c.trueMatches).F1
}

// batchOf lifts a per-pair oracle into a batch oracle.
func batchOf(o crowdjoin.Oracle) crowdjoin.BatchOracle {
	return crowdjoin.BatchOracleFunc(func(ps []crowdjoin.Pair) []crowdjoin.Label {
		out := make([]crowdjoin.Label, len(ps))
		for i, p := range ps {
			out[i] = o.Label(p)
		}
		return out
	})
}

// forEach calls fn(0), …, fn(n-1) on one goroutine per CPU and returns
// the errors joined.
func forEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sameClusters reports whether two clusterings are identical.
func sameClusters(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
