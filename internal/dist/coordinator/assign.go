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

// assignOwners maps the shard assignment onto the live fleet — shard j
// lands on the j-th live worker in ascending fleet order, so owner[s] is
// a fleet index — and charges each owner its sites' documents, the load
// the loss path (lightestAlive) balances against.
func (r *run) assignOwners() []int {
	var idxs []int
	for i, a := range r.alive {
		if a {
			idxs = append(idxs, i)
		}
	}
	shard := r.shardOwners(len(idxs))
	owner := make([]int, r.ns)
	for s, b := range shard {
		owner[s] = idxs[b]
		r.load[owner[s]] += r.siteDocs(s)
	}
	return owner
}
