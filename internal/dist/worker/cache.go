package worker

import (
	"container/list"
	"sync"

	"lmmrank/internal/dist/wire"
	"lmmrank/internal/lmm"
)

// cacheEntry is one cached shard: its local chain. The chain is built
// when the shard is loaded and the subgraph it was built from is
// dropped, so an entry holds each of the shard's links once, as the
// chain's source — 2 bytes on any site of at most matrix.MaxNarrowOrder
// documents — and no solver scratch: every RankLocal that hits the entry
// sweeps a solver of its own, whose only vector is its iterate. Entries
// are immutable after construction, so two sessions (two coordinators
// sharing the worker) may rank the same entry at once.
type cacheEntry struct {
	digest  wire.Digest
	numDocs int
	chain   *lmm.SubgraphSolver
}

// shardCache is the worker-global digest-keyed store that makes
// repeated coordinator runs cheap: shards survive their sessions and
// coordinator reconnects, so an unchanged graph is never re-shipped and
// its chains are never rebuilt.
//
// Retention is bounded by aggregate document count (maxDocs) with
// least-recently-used eviction. Evicting an entry does not invalidate
// sessions already holding it — they keep their pointer, and a Load
// that names them again keeps them — it only stops other sessions' refs
// from hitting.
type shardCache struct {
	mu        sync.Mutex
	shards    map[wire.Digest]*list.Element // values: *cacheEntry
	shardLRU  *list.List                    // front = most recently used
	totalDocs int
	maxDocs   int
}

func newShardCache() *shardCache {
	return &shardCache{
		shards:   make(map[wire.Digest]*list.Element),
		shardLRU: list.New(),
		maxDocs:  wire.MaxShardDocs,
	}
}

// lookupShard returns the cached entry for digest (touching its LRU
// position) or nil.
func (c *shardCache) lookupShard(d wire.Digest) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.shards[d]
	if !ok {
		return nil
	}
	c.shardLRU.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// addShard caches the entry under its digest, evicting least-recently
// used entries until the document budget holds. An entry already cached
// under the same digest is returned instead (the caller's duplicate is
// dropped), so identical shards across sites and sessions share one
// chain.
func (c *shardCache) addShard(e *cacheEntry) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.shards[e.digest]; ok {
		c.shardLRU.MoveToFront(el)
		return el.Value.(*cacheEntry)
	}
	c.shards[e.digest] = c.shardLRU.PushFront(e)
	c.totalDocs += e.numDocs
	for c.totalDocs > c.maxDocs && c.shardLRU.Len() > 1 {
		oldest := c.shardLRU.Back()
		old := oldest.Value.(*cacheEntry)
		c.shardLRU.Remove(oldest)
		delete(c.shards, old.digest)
		c.totalDocs -= old.numDocs
	}
	return e
}

// gauges reports the cache's current occupancy for Stats.
func (c *shardCache) gauges() (entries, docs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shardLRU.Len(), c.totalDocs
}
