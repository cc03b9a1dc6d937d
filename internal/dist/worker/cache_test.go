package worker

import (
	"testing"

	"lmmrank/internal/dist/wire"
	"lmmrank/internal/graph"
)

func entryOfDocs(digestByte byte, docs int) *cacheEntry {
	var d wire.Digest
	d[0] = digestByte
	return &cacheEntry{digest: d, numDocs: docs, sub: graph.NewDigraph(docs)}
}

// TestShardCacheLRUEviction pins the retention policy: the document
// budget evicts the least-recently-used entries first, and lookups
// refresh recency.
func TestShardCacheLRUEviction(t *testing.T) {
	c := newShardCache()
	c.maxDocs = 10
	e1 := entryOfDocs(1, 4)
	e2 := entryOfDocs(2, 4)
	e3 := entryOfDocs(3, 4)
	c.addShard(e1)
	c.addShard(e2)
	if c.lookupShard(e1.digest) == nil {
		t.Fatal("e1 evicted while under budget")
	}
	// e1 is now most recent; adding e3 (total 12 > 10) must evict e2.
	c.addShard(e3)
	if c.lookupShard(e2.digest) != nil {
		t.Error("least-recently-used entry survived over-budget insert")
	}
	if c.lookupShard(e1.digest) == nil || c.lookupShard(e3.digest) == nil {
		t.Error("recently used entries were evicted")
	}
	if entries, docs := c.gauges(); entries != 2 || docs != 8 {
		t.Errorf("gauges = %d entries / %d docs, want 2 / 8", entries, docs)
	}
}

// TestShardCacheDedupes asserts that inserting the same digest twice
// keeps one entry — identical shards share a subgraph and a solver.
func TestShardCacheDedupes(t *testing.T) {
	c := newShardCache()
	e1 := entryOfDocs(7, 3)
	dup := entryOfDocs(7, 3)
	if got := c.addShard(e1); got != e1 {
		t.Fatal("first insert did not return the inserted entry")
	}
	if got := c.addShard(dup); got != e1 {
		t.Error("duplicate digest did not resolve to the cached entry")
	}
	if entries, docs := c.gauges(); entries != 1 || docs != 3 {
		t.Errorf("gauges = %d entries / %d docs after dedupe, want 1 / 3", entries, docs)
	}
}

// TestCachedLoadAcrossSessions drives the cache protocol over a real
// socket: a shard shipped by one session is declared by digest from a
// second session and activated without re-shipping its content.
func TestCachedLoadAcrossSessions(t *testing.T) {
	w := New()
	addr, err := w.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer w.Close()

	shard := wire.SiteShard{Site: 0, NumDocs: 2, Edges: []wire.Edge{
		{From: 0, To: 1, Weight: 1}, {From: 1, To: 0, Weight: 1},
	}}
	digest := shard.ContentDigest()

	enc1, dec1, _ := dial(t, addr)
	if resp := roundTrip(t, enc1, dec1, &wire.Request{
		Kind: wire.KindLoad, NumSites: 1, Shards: []wire.SiteShard{shard},
	}); resp.Err != "" {
		t.Fatalf("full load: %s", resp.Err)
	}

	// A brand-new session sees the hit: the cache is worker-global.
	enc2, dec2, _ := dial(t, addr)
	load := roundTrip(t, enc2, dec2, &wire.Request{
		Kind: wire.KindLoad, NumSites: 1,
		Cached: []wire.ShardRef{{Site: 0, Digest: digest}},
	})
	if load.Err != "" || len(load.Missing) != 0 {
		t.Fatalf("cached load: err=%q missing=%v", load.Err, load.Missing)
	}
	rank := roundTrip(t, enc2, dec2, &wire.Request{Kind: wire.KindRankLocal})
	if rank.Err != "" || len(rank.Local) != 1 || len(rank.Local[0].Scores) != 2 {
		t.Fatalf("rank over cached shard: err=%q local=%v", rank.Err, rank.Local)
	}
}

// TestCachedLoadReportsEvicted: a ref the worker holds nowhere comes
// back in Missing instead of failing the load, the un-activated site is
// not silently rankable, and the same declaration with the shard in full
// completes the session — the two exchanges of a cold shipment.
func TestCachedLoadReportsEvicted(t *testing.T) {
	w := New()
	addr, err := w.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer w.Close()
	enc, dec, _ := dial(t, addr)

	held := wire.SiteShard{Site: 1, NumDocs: 1}
	if resp := roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindLoad, NumSites: 2, Shards: []wire.SiteShard{held}}); resp.Err != "" {
		t.Fatalf("load: %s", resp.Err)
	}
	unknown := wire.SiteShard{Site: 0, NumDocs: 3}
	refs := []wire.ShardRef{{Site: 0, Digest: unknown.ContentDigest()}, {Site: 1, Digest: held.ContentDigest()}}
	load := roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindLoad, NumSites: 2, Cached: refs})
	if load.Err != "" {
		t.Fatalf("load with an unknown ref must not fail hard: %s", load.Err)
	}
	if len(load.Missing) != 1 || load.Missing[0] != 0 {
		t.Fatalf("Missing = %v, want [0]", load.Missing)
	}
	if rank := roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindRankLocal, Sites: []int{0}}); rank.Err == "" {
		t.Error("ranking a never-activated site succeeded")
	}
	load = roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindLoad, NumSites: 2,
		Cached: refs[1:], Shards: []wire.SiteShard{unknown}})
	if load.Err != "" || len(load.Missing) != 0 {
		t.Fatalf("declaration with the miss in full: err=%q missing=%v", load.Err, load.Missing)
	}
	rank := roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindRankLocal})
	if rank.Err != "" || len(rank.Local) != 2 || len(rank.Local[0].Scores) != 3 {
		t.Fatalf("rank after completing the session: err=%q local=%v", rank.Err, rank.Local)
	}
}

// TestRankLocalSubset asserts Request.Sites restricts the computation —
// the recovery path must re-rank only reassigned sites.
func TestRankLocalSubset(t *testing.T) {
	w := New()
	addr, err := w.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer w.Close()
	enc, dec, _ := dial(t, addr)

	if resp := roundTrip(t, enc, dec, &wire.Request{
		Kind: wire.KindLoad, NumSites: 3, Shards: []wire.SiteShard{
			{Site: 0, NumDocs: 1}, {Site: 1, NumDocs: 1}, {Site: 2, NumDocs: 1},
		},
	}); resp.Err != "" {
		t.Fatalf("load: %s", resp.Err)
	}
	resp := roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindRankLocal, Sites: []int{2, 0}})
	if resp.Err != "" {
		t.Fatalf("subset rank: %s", resp.Err)
	}
	if len(resp.Local) != 2 {
		t.Fatalf("subset rank returned %d sites, want 2", len(resp.Local))
	}
	for _, lr := range resp.Local {
		if lr.Site == 1 {
			t.Error("unrequested site 1 was ranked")
		}
	}
}

// TestBatchRoundsValidation covers the failure modes of the batched
// SiteRank handler: no chain loaded, malformed chains, bad budgets.
func TestBatchRoundsValidation(t *testing.T) {
	w := New()
	addr, err := w.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer w.Close()
	enc, dec, _ := dial(t, addr)

	if resp := roundTrip(t, enc, dec, &wire.Request{
		Kind: wire.KindBatchRounds, NumSites: 0, Rounds: 1,
	}); resp.Err == "" {
		t.Error("batch rounds without a chain succeeded")
	}

	badChains := []*wire.SiteChain{
		{NumSites: 1, RowPtr: []int{0}},                                              // short rowptr
		{NumSites: 2, RowPtr: []int{0, 1, 1}, Cols: []int{5}, Vals: []float64{1}},    // col out of range
		{NumSites: 2, RowPtr: []int{0, 1, 1}, Cols: []int{0}, Vals: []float64{0.4}},  // row not stochastic
		{NumSites: 2, RowPtr: []int{0, 2, 1}, Cols: []int{0, 1}, Vals: []float64{1}}, // arity + order broken
	}
	for i, chain := range badChains {
		resp := roundTrip(t, enc, dec, &wire.Request{
			Kind: wire.KindLoad, NumSites: chain.NumSites, Chain: chain,
		})
		if resp.Err == "" {
			t.Errorf("bad chain %d was accepted", i)
		}
	}

	good := &wire.SiteChain{NumSites: 2, RowPtr: []int{0, 1, 1}, Cols: []int{1}, Vals: []float64{1}}
	if resp := roundTrip(t, enc, dec, &wire.Request{
		Kind: wire.KindLoad, NumSites: 2, Chain: good,
	}); resp.Err != "" {
		t.Fatalf("good chain rejected: %s", resp.Err)
	}
	if resp := roundTrip(t, enc, dec, &wire.Request{
		Kind: wire.KindBatchRounds, NumSites: 2, X: []float64{0.5, 0.5}, Rounds: 0,
	}); resp.Err == "" {
		t.Error("zero-round batch succeeded")
	}
	resp := roundTrip(t, enc, dec, &wire.Request{
		Kind: wire.KindBatchRounds, NumSites: 2, X: []float64{0.5, 0.5}, Rounds: 3,
	})
	if resp.Err != "" {
		t.Fatalf("batch rounds: %s", resp.Err)
	}
	if resp.Rounds < 1 || len(resp.X) != 2 {
		t.Errorf("batch answered %d rounds, iterate %v", resp.Rounds, resp.X)
	}
	sum := resp.X[0] + resp.X[1]
	if sum < 0.999999 || sum > 1.000001 {
		t.Errorf("batched iterate sums to %g, want 1", sum)
	}
}

// TestCacheHitRevalidatesSiteSpace is the cross-site-space regression:
// a shard cached under a large graph whose row targets high site IDs
// must be rejected — not silently reused — when the identical bytes are
// re-shipped into a smaller site space, or the branch-free power round
// would index past its iterate.
func TestCacheHitRevalidatesSiteSpace(t *testing.T) {
	w := New()
	addr, err := w.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer w.Close()
	enc, dec, _ := dial(t, addr)

	shard := wire.SiteShard{Site: 0, NumDocs: 1, RowCols: []int{7}, RowVals: []float64{1}}
	if resp := roundTrip(t, enc, dec, &wire.Request{
		Kind: wire.KindLoad, NumSites: 10, Shards: []wire.SiteShard{shard},
	}); resp.Err != "" {
		t.Fatalf("load into the large space: %s", resp.Err)
	}
	// Same bytes, smaller space: the digest hits the cache, but column 7
	// is now out of range and must fail validation cleanly.
	resp := roundTrip(t, enc, dec, &wire.Request{
		Kind: wire.KindLoad, NumSites: 2, Shards: []wire.SiteShard{shard},
	})
	if resp.Err == "" {
		t.Fatal("cache-hit shard with out-of-range row columns was accepted into a smaller site space")
	}
	// The worker must survive to serve the next request.
	if ping := roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindPing}); ping.Err != "" {
		t.Errorf("ping after rejected load: %s", ping.Err)
	}
}
