// Package partition places the distributed runtime's sites on worker
// shards. Sites stay the Layered Markov Model's decomposition units (the
// Partition Theorem composes the same global DocRank from any
// site→shard placement), and after a site's subgraph has shipped no
// protocol message carries a document or site link between workers, so
// the placement decides one thing: the local phase's load balance. One
// function decides it — weighted LPT by document count (Balanced, LPT).
//
// Cut and CutFraction measure how much SiteGraph weight a placement
// splits across shards. Nothing on the wire depends on it; they stay as
// a description of the web (docs/ARCHITECTURE.md, "Decided against: a
// cut-minimizing placement").
package partition

import (
	"sort"

	"lmmrank/internal/graph"
)

// Assignment maps every site of a DocGraph to one of Shards shards.
// Shard indices are abstract bins in [0, Shards); the coordinator maps
// bin j onto the j-th live worker in ascending fleet order.
type Assignment struct {
	// Owner holds the shard index per SiteID.
	Owner []int
	// Shards is the number of bins the assignment was computed for.
	Shards int
}

// Clone deep-copies the assignment.
func (a Assignment) Clone() Assignment {
	return Assignment{Owner: append([]int(nil), a.Owner...), Shards: a.Shards}
}

// Valid reports whether the assignment covers exactly ns sites over
// exactly shards bins with every owner in range.
func (a Assignment) Valid(ns, shards int) bool {
	if a.Shards != shards || len(a.Owner) != ns {
		return false
	}
	for _, o := range a.Owner {
		if o < 0 || o >= shards {
			return false
		}
	}
	return true
}

// Cut measures an assignment against a SiteGraph: cut is the aggregated
// document-link weight between sites whose owners differ, total is the
// SiteGraph's whole weight. owner may label shards in any space (bins
// or fleet indices) — only inequality matters. Sites beyond owner's
// length are ignored, so a short owner under-counts rather than panics.
func Cut(sg *graph.SiteGraph, owner []int) (cut, total float64) {
	sg.G.EachEdgeAll(func(from int, e graph.Edge) {
		total += e.Weight
		if from < len(owner) && e.To < len(owner) && owner[from] != owner[e.To] {
			cut += e.Weight
		}
	})
	return cut, total
}

// CutFraction is Cut as a fraction of the total weight (0 on an
// edgeless graph).
func CutFraction(sg *graph.SiteGraph, owner []int) float64 {
	cut, total := Cut(sg, owner)
	if total == 0 {
		return 0
	}
	return cut / total
}

// LPT partitions all items over k bins by weighted LPT (longest
// processing time) bin packing: items sorted by descending size each
// land on the currently lightest bin. Its max load is within 4/3 of
// optimal, which on skewed site-size distributions beats round-robin by
// a wide margin. load must have length k; the chosen loads are added
// into it. Fully deterministic: size ties break toward the lower item
// index, load ties toward the lower bin.
func LPT(sizes []int, k int, load []int) []int {
	owner := make([]int, len(sizes))
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] > sizes[order[b]] })
	for _, s := range order {
		best := 0
		for b := 1; b < k; b++ {
			if load[b] < load[best] {
				best = b
			}
		}
		owner[s] = best
		load[best] += sizes[s]
	}
	return owner
}

// Balanced is the runtime's placement: LPT over the sites' document
// counts, so the local phase's wall clock (the max over workers) is as
// short as one pass of greedy packing makes it.
type Balanced struct{}

// Partition places dg's sites over shards bins (at least one).
func (Balanced) Partition(dg *graph.DocGraph, shards int) Assignment {
	k := max(shards, 1)
	sizes := make([]int, dg.NumSites())
	for s := range sizes {
		sizes[s] = dg.SiteSize(graph.SiteID(s))
	}
	return Assignment{Owner: LPT(sizes, k, make([]int, k)), Shards: k}
}
