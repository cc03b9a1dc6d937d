package worker

import (
	"container/list"
	"sync"

	"lmmrank/internal/dist/wire"
	"lmmrank/internal/lmm"
	"lmmrank/internal/matrix"
)

// cacheEntry is one cached shard: its row of the site chain and the
// solver over its local chain, whose scratch is reused by every RankLocal
// that hits this entry. The solver is built when the shard is loaded and
// the subgraph it was built from is dropped, so an entry holds each of
// the shard's links once, as the chain's 4-byte source. Entries are
// immutable after construction except for the solver's scratch, which mu
// guards — two sessions (two coordinators sharing the worker) may rank
// the same entry concurrently, and the solver is not goroutine-safe.
type cacheEntry struct {
	digest  wire.Digest
	numDocs int
	rowCols []int
	rowVals []float64

	mu     sync.Mutex
	solver *lmm.SubgraphSolver
}

// rowWithin reports whether the entry's chain row fits a site space of
// numSites. An entry was validated against the site space it was first
// loaded into, so every later activation re-checks: a shard cached under
// a larger graph must not smuggle out-of-range columns past the power
// round's branch-free loop.
func (e *cacheEntry) rowWithin(numSites int) bool {
	for _, col := range e.rowCols {
		if col < 0 || col >= numSites {
			return false
		}
	}
	return true
}

// rank computes the entry's local DocRank, cloning the result out of the
// solver's scratch (the clone is what crosses sessions and the wire; the
// scratch stays entry-private).
func (e *cacheEntry) rank(cfg lmm.WebConfig) (matrix.Vector, int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	scores, iters, err := e.solver.Rank(cfg)
	if err != nil {
		return nil, 0, err
	}
	return scores.Clone(), iters, nil
}

// shardCache is the worker-global digest-keyed store that makes
// repeated coordinator runs cheap: shards (and site chains) survive
// their sessions and coordinator reconnects, so an unchanged graph is
// never re-shipped and its solvers keep their warm scratch.
//
// Shard retention is bounded by aggregate document count (maxDocs) with
// least-recently-used eviction; chains by entry count. Evicting an
// entry does not invalidate sessions already holding it — they keep
// their pointer, and a Load that names them again keeps them — it only
// stops other sessions' refs from hitting.
type shardCache struct {
	mu        sync.Mutex
	shards    map[wire.Digest]*list.Element // values: *cacheEntry
	shardLRU  *list.List                    // front = most recently used
	totalDocs int
	maxDocs   int

	chains    map[wire.Digest]*list.Element // values: *chainEntry
	chainLRU  *list.List
	maxChains int
}

// chainEntry is a validated site chain under its digest, with the
// self-loop weights every batched round divides out, taken once.
type chainEntry struct {
	digest wire.Digest
	chain  *wire.SiteChain
	diag   matrix.Vector
}

func newShardCache() *shardCache {
	return &shardCache{
		shards:    make(map[wire.Digest]*list.Element),
		shardLRU:  list.New(),
		maxDocs:   wire.MaxShardDocs,
		chains:    make(map[wire.Digest]*list.Element),
		chainLRU:  list.New(),
		maxChains: 4,
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
// warm solver.
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

// lookupChain returns the cached chain for digest (touching LRU) or nil.
func (c *shardCache) lookupChain(d wire.Digest) *chainEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.chains[d]
	if !ok {
		return nil
	}
	c.chainLRU.MoveToFront(el)
	return el.Value.(*chainEntry)
}

// addChain caches a chain entry, keeping at most maxChains. An entry
// already cached under the same digest is returned instead, as addShard
// does.
func (c *shardCache) addChain(e *chainEntry) *chainEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.chains[e.digest]; ok {
		c.chainLRU.MoveToFront(el)
		return el.Value.(*chainEntry)
	}
	c.chains[e.digest] = c.chainLRU.PushFront(e)
	for c.chainLRU.Len() > c.maxChains {
		oldest := c.chainLRU.Back()
		c.chainLRU.Remove(oldest)
		delete(c.chains, oldest.Value.(*chainEntry).digest)
	}
	return e
}

// gauges reports the cache's current occupancy for Stats.
func (c *shardCache) gauges() (entries, docs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shardLRU.Len(), c.totalDocs
}
