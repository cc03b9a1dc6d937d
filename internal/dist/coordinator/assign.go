package coordinator

import "lmmrank/internal/partition"

// shardOwners computes the site→shard assignment over k abstract
// shards: weighted LPT by document count. A pinned Config.Assignment
// wins when it fits the live fleet; one that does not (wrong length, or
// an owner outside the live fleet after a permanent loss) falls back to
// LPT.
func (r *run) shardOwners(k int) []int {
	if a := r.cfg.Assignment; (partition.Assignment{Owner: a, Shards: k}).Valid(r.ns, k) {
		return a
	}
	sizes := make([]int, r.ns)
	for s := range sizes {
		sizes[s] = r.siteDocs(s)
	}
	return partition.LPT(sizes, k, make([]int, k))
}

// idealOwners maps the shard assignment onto the live fleet: shard j
// lands on the j-th live worker in ascending fleet order, so owner[s]
// is a fleet index. Load ties in LPT break toward the lower shard, which
// is the earlier live worker, so rejoin rebalancing is deterministic.
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
