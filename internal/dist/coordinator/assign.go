package coordinator

import "lmmrank/internal/partition"

// strategy returns the configured placement strategy, defaulting to
// weighted LPT — the single balancing code path (partition.Balanced
// wraps partition.LPT; the coordinator has no private copy).
func (r *run) strategy() partition.Strategy {
	if r.cfg.Partition != nil {
		return r.cfg.Partition
	}
	return partition.Balanced{}
}

// shardOwners computes the site→shard assignment over k abstract
// shards. A pinned Config.Assignment wins when it fits the live fleet
// (the root DistEngine pins placements per snapshot so queries and
// rejoin rebalances agree); otherwise the strategy partitions fresh.
func (r *run) shardOwners(k int) []int {
	if a := r.cfg.Assignment; len(a) == r.ns {
		ok := true
		for _, o := range a {
			if o < 0 || o >= k {
				ok = false
				break
			}
		}
		if ok {
			return a
		}
	}
	return r.strategy().Partition(r.rk.DocGraph(), k).Owner
}

// idealOwners maps the shard assignment onto the live fleet: shard j
// lands on the j-th live worker in ascending fleet order, so owner[s]
// is a fleet index. For the default Balanced strategy this reproduces
// the historical direct-LPT-over-aliveIdxs assignment exactly (load
// ties break toward the lower shard, which is the earlier live
// worker), keeping rejoin rebalancing deterministic.
func (r *run) idealOwners() []int {
	idxs := r.aliveIdxs()
	shard := r.shardOwners(len(idxs))
	owner := make([]int, r.ns)
	for s, b := range shard {
		owner[s] = idxs[b]
	}
	return owner
}

// assignOwners is idealOwners plus the load accounting the loss path
// (lightestAlive) balances against.
func (r *run) assignOwners() []int {
	owner := r.idealOwners()
	for s, w := range owner {
		r.load[w] += r.siteDocs(s)
	}
	return owner
}

// computeCutStats records the placement's partition quality on the
// run's Stats: the SiteGraph weight crossing worker boundaries, its
// fraction of the total, and the counterfactual per-sweep bytes a
// document-level edge exchange would ship across those boundaries.
func (r *run) computeCutStats() {
	cut, total := partition.Cut(r.rk.SiteGraph(), r.owner)
	r.stats.CutEdges = cut
	if total > 0 {
		r.stats.CutFraction = cut / total
	}
	r.stats.CrossShardBytes = uint64(cut) * partition.EstCutEdgeBytes
}
