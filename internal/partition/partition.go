// Package partition makes the distributed runtime's web aggregation —
// which sites serve from which worker shard — a pluggable strategy
// instead of a fact about hostnames. Sites stay the Layered Markov
// Model's decomposition units (the Partition Theorem composes the same
// global DocRank from any site→shard placement), so the assignment is a
// pure performance knob: it decides load balance, how many document
// links cross shard boundaries (the cut), and therefore how much
// coupling the distributed computation has to carry between peers.
//
// Three strategies cover the design space:
//
//   - Host: hostname-order round-robin, the seed runtime's original
//     placement. Position-stable and oblivious to both size and
//     coupling.
//   - Balanced: weighted LPT bin packing by document count, the
//     runtime's default — one giant site cannot serialize the fleet.
//   - Aggregate: coupling-aware aggregation in the spirit of
//     Ishii–Tempo web aggregation and BlockRank's block structure —
//     greedy block-merge over the SiteGraph followed by seeded
//     label-propagation refinement, minimizing cut-edge weight under a
//     max-shard-size balance constraint. Deterministic for a given
//     seed.
//
// Every strategy implements incremental Rebalance so graph churn moves
// only what the drift justifies; Cut and CutFraction report the quality
// every distributed run's Stats surface.
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

// Strategy computes site→shard assignments. Implementations must be
// deterministic: the same graph, shard count and configuration (seed
// included) must yield the same assignment — distributed reruns and
// rejoin rebalancing depend on it.
type Strategy interface {
	// Name identifies the strategy for flags, logs and stats lines.
	Name() string
	// Partition computes a fresh assignment of dg's sites over shards
	// bins.
	Partition(dg *graph.DocGraph, shards int) Assignment
	// Rebalance incrementally updates prev after the listed sites
	// changed (sites beyond prev's roster are implicitly new): sites
	// the churn does not justify moving keep their shard, so the
	// migration cost — shards re-shipped to new owners — stays
	// proportional to the drift, not to the web.
	Rebalance(dg *graph.DocGraph, changed []graph.SiteID, prev Assignment) Assignment
}

// EstCutEdgeBytes is the coarse wire cost of one document edge (two
// ints and a float64, fixed-width) — the byte price a document-level exchange would
// pay per cut edge per sweep, which is the volume Aggregate minimizes.
const EstCutEdgeBytes = 24

// Cut measures an assignment's quality against a SiteGraph: cut is the
// aggregated document-link weight between sites whose owners differ,
// total is the SiteGraph's whole weight. owner may label shards in any
// space (bins or fleet indices) — only inequality matters. Sites beyond
// owner's length are ignored, so a short owner under-counts rather than
// panics.
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

// siteSizes returns each site's document count — the balance weights.
func siteSizes(dg *graph.DocGraph) []int {
	sizes := make([]int, dg.NumSites())
	for s := range sizes {
		sizes[s] = dg.SiteSize(graph.SiteID(s))
	}
	return sizes
}

// lptPlace assigns the listed items over k bins by weighted LPT
// (longest processing time): items sorted by descending size each land
// on the currently lightest bin. load is the k-length accumulator the
// chosen loads are added into, so callers can re-place a subset over
// existing loads. Fully deterministic: size ties break toward the lower
// item index, load ties toward the lower bin.
func lptPlace(items []int, sizes []int, k int, load []int, owner []int) {
	order := append([]int(nil), items...)
	sort.Slice(order, func(a, b int) bool {
		if sizes[order[a]] != sizes[order[b]] {
			return sizes[order[a]] > sizes[order[b]]
		}
		return order[a] < order[b]
	})
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
}

// LPT partitions all items over k bins by weighted LPT bin packing —
// the single balancing code path the runtime uses (LPT's max load is
// within 4/3 of optimal, which on skewed site-size distributions beats
// round-robin by a wide margin). load must have length k; the chosen
// loads are added into it.
func LPT(sizes []int, k int, load []int) []int {
	owner := make([]int, len(sizes))
	items := make([]int, len(sizes))
	for i := range items {
		items[i] = i
	}
	lptPlace(items, sizes, k, load, owner)
	return owner
}

// clampShards guards strategy entry points against a non-positive bin
// count.
func clampShards(k int) int {
	if k < 1 {
		return 1
	}
	return k
}

// Host is the hostname-order placement the seed runtime shipped with:
// site s lands on shard s mod k. Oblivious to size and coupling, but
// position-stable — churn never moves an existing site, so Rebalance
// migrates nothing.
type Host struct{}

// Name implements Strategy.
func (Host) Name() string { return "host" }

// Partition implements Strategy: round-robin by SiteID.
func (Host) Partition(dg *graph.DocGraph, shards int) Assignment {
	k := clampShards(shards)
	owner := make([]int, dg.NumSites())
	for s := range owner {
		owner[s] = s % k
	}
	return Assignment{Owner: owner, Shards: k}
}

// Rebalance implements Strategy. Round-robin is a pure function of the
// site index, so recomputing is position-stable: existing sites keep
// their shard, appended sites slot in at (s mod k).
func (h Host) Rebalance(dg *graph.DocGraph, changed []graph.SiteID, prev Assignment) Assignment {
	return h.Partition(dg, clampShards(prev.Shards))
}

// Balanced is the weighted-LPT placement, the runtime's default: sites
// sorted by descending document count each land on the lightest shard,
// so the local-rank phase's wall clock (the max over workers) shrinks
// versus round-robin on skewed size distributions.
type Balanced struct{}

// Name implements Strategy.
func (Balanced) Name() string { return "balanced" }

// Partition implements Strategy.
func (Balanced) Partition(dg *graph.DocGraph, shards int) Assignment {
	k := clampShards(shards)
	owner := LPT(siteSizes(dg), k, make([]int, k))
	return Assignment{Owner: owner, Shards: k}
}

// Rebalance implements Strategy: unchanged sites keep their shard, and
// only the changed and appended sites re-place by LPT over the
// surviving loads — churn cannot reshuffle the whole web.
func (b Balanced) Rebalance(dg *graph.DocGraph, changed []graph.SiteID, prev Assignment) Assignment {
	k := clampShards(prev.Shards)
	ns := dg.NumSites()
	sizes := siteSizes(dg)
	changedSet := make(map[int]bool, len(changed))
	for _, s := range changed {
		changedSet[int(s)] = true
	}
	owner := make([]int, ns)
	load := make([]int, k)
	var loose []int
	for s := 0; s < ns; s++ {
		if s < len(prev.Owner) && !changedSet[s] && prev.Owner[s] >= 0 && prev.Owner[s] < k {
			owner[s] = prev.Owner[s]
			load[owner[s]] += sizes[s]
			continue
		}
		loose = append(loose, s)
	}
	lptPlace(loose, sizes, k, load, owner)
	return Assignment{Owner: owner, Shards: k}
}

// Extend grows prev to cover every site of dg without moving any
// already-assigned site: appended sites land on the lightest shards by
// document count. It is the zero-migration baseline Engine.Update
// measures cut drift against before deciding whether a real repartition
// is worth the shard moves.
func Extend(dg *graph.DocGraph, prev Assignment) Assignment {
	k := clampShards(prev.Shards)
	ns := dg.NumSites()
	sizes := siteSizes(dg)
	owner := make([]int, ns)
	load := make([]int, k)
	var loose []int
	for s := 0; s < ns; s++ {
		if s < len(prev.Owner) && prev.Owner[s] >= 0 && prev.Owner[s] < k {
			owner[s] = prev.Owner[s]
			load[owner[s]] += sizes[s]
			continue
		}
		loose = append(loose, s)
	}
	lptPlace(loose, sizes, k, load, owner)
	return Assignment{Owner: owner, Shards: k}
}
