package worker

import (
	"testing"

	"lmmrank/internal/dist/wire"
)

func entryOfDocs(digestByte byte, docs int) *cacheEntry {
	var d wire.Digest
	d[0] = digestByte
	return &cacheEntry{digest: d, numDocs: docs}
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
// keeps one entry — identical shards share a solver.
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

	shard := wire.SiteShard{Site: 0, Degrees: []uint32{1, 1}, Targets: []uint32{1, 0}}
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

	held := wire.SiteShard{Site: 1, Degrees: docs(1)}
	if resp := roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindLoad, NumSites: 2, Shards: []wire.SiteShard{held}}); resp.Err != "" {
		t.Fatalf("load: %s", resp.Err)
	}
	unknown := wire.SiteShard{Site: 0, Degrees: docs(3)}
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
			{Site: 0, Degrees: docs(1)}, {Site: 1, Degrees: docs(1)}, {Site: 2, Degrees: docs(1)},
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

// TestCacheHitRevalidatesSiteSpace is the cross-site-space regression:
// a shard cached under a large graph at a high site ID must be rejected —
// not silently reused — when the identical bytes are re-shipped, or
// declared by digest, into a smaller site space that has no such site.
func TestCacheHitRevalidatesSiteSpace(t *testing.T) {
	w := New()
	addr, err := w.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer w.Close()
	enc, dec, _ := dial(t, addr)

	shard := wire.SiteShard{Site: 7, Degrees: docs(1)}
	if resp := roundTrip(t, enc, dec, &wire.Request{
		Kind: wire.KindLoad, NumSites: 10, Shards: []wire.SiteShard{shard},
	}); resp.Err != "" {
		t.Fatalf("load into the large space: %s", resp.Err)
	}
	// Same bytes, smaller space: the digest hits the cache, but site 7 is
	// now out of range and must fail validation cleanly.
	for _, req := range []*wire.Request{
		{Kind: wire.KindLoad, NumSites: 2, Shards: []wire.SiteShard{shard}},
		{Kind: wire.KindLoad, NumSites: 2, Cached: []wire.ShardRef{{Site: 7, Digest: shard.ContentDigest()}}},
	} {
		if resp := roundTrip(t, enc, dec, req); resp.Err == "" {
			t.Fatalf("cache-hit shard at site 7 was accepted into a space of 2 sites (%d shipped, %d by digest)", len(req.Shards), len(req.Cached))
		}
	}
	// The worker must survive to serve the next request.
	if ping := roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindPing}); ping.Err != "" {
		t.Errorf("ping after rejected load: %s", ping.Err)
	}
}
