package cluster

import (
	"context"
	"errors"
	"testing"

	"lmmrank/internal/dist/coordinator"
	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/webgen"
)

// testWeb2 is a second, differently seeded web for alternating-graph
// memo tests.
func testWeb2() *webgen.Web {
	return webgen.Generate(webgen.Config{
		Seed:                1729,
		Sites:               15,
		MeanSitePages:       10,
		DynamicClusterPages: 40,
		DocClusterPages:     40,
	})
}

// TestDeltaShippingAfterRebuild is the distributed churn contract: after
// a 1-site edit delivered through the delta path (Ranker.Rebuild, with
// the cold run's Digests less the edited site), the next run re-ships only the mutated
// shard — every other shard is an Offer hit against the worker caches —
// hashes digest bytes only for the dirty shard, and still agrees with
// the single-process pipeline to < 1e-9.
func TestDeltaShippingAfterRebuild(t *testing.T) {
	web := testWeb()
	dg := web.Graph
	ns := dg.NumSites()
	rk, err := lmm.NewRanker(dg, lmm.RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	cl, err := StartLocal(3)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer cl.Close()

	ctx := context.Background()
	cold, err := cl.Coord.RankPreparedCtx(ctx, rk, coordinator.Config{}, coordinator.Warm{})
	if err != nil {
		t.Fatalf("cold RankPreparedCtx: %v", err)
	}
	if cold.Stats.ShardsReshipped != ns || cold.Stats.CacheHits != 0 {
		t.Fatalf("cold run reshipped %d / reused %d, want %d / 0",
			cold.Stats.ShardsReshipped, cold.Stats.CacheHits, ns)
	}

	// One site's links change.
	const site = graph.SiteID(3)
	docs := dg.Sites[site].Docs
	if len(docs) < 3 {
		t.Fatalf("site %d too small for the edit", site)
	}
	dg.G.AddLink(int(docs[0]), int(docs[2]))
	dg.G.AddLink(int(docs[2]), int(docs[0]))

	// The stale Ranker is refused, not silently served.
	if _, err := cl.Coord.RankPreparedCtx(ctx, rk, coordinator.Config{}, coordinator.Warm{Digests: cold.Digests}); !errors.Is(err, lmm.ErrGraphMutated) {
		t.Fatalf("stale RankPreparedCtx: err = %v, want ErrGraphMutated", err)
	}

	next, err := rk.Rebuild([]graph.SiteID{site})
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	carried := cold.Digests.Drop([]graph.SiteID{site})

	warm, err := cl.Coord.RankPreparedCtx(ctx, next, coordinator.Config{}, coordinator.Warm{Digests: carried})
	if err != nil {
		t.Fatalf("warm RankPreparedCtx: %v", err)
	}
	if warm.Stats.ShardsReshipped != 1 || warm.Stats.CacheHits != ns-1 {
		t.Errorf("delta run reshipped %d / reused %d, want 1 / %d",
			warm.Stats.ShardsReshipped, warm.Stats.CacheHits, ns-1)
	}
	if warm.Stats.CacheHits == 0 {
		t.Error("delta run reused no shards")
	}
	// Only the dirty shard's content is re-hashed (the carried digests
	// name every clean shard), so the digest work is a small fraction
	// of the cold sweep.
	if warm.Stats.DigestBytesHashed == 0 {
		t.Error("delta run hashed nothing — the dirty shard's digest must be recomputed")
	}
	if warm.Stats.DigestBytesHashed*4 > cold.Stats.DigestBytesHashed {
		t.Errorf("delta run hashed %d digest bytes vs %d cold — not proportional to the change",
			warm.Stats.DigestBytesHashed, cold.Stats.DigestBytesHashed)
	}
	// The wire cost of the load phase collapses to ~1/N of the cold run
	// (one shard plus negotiation overhead); a quarter is a loose bound
	// for a ~20-site web.
	if warm.Stats.BytesSent*4 > cold.Stats.BytesSent {
		t.Errorf("delta run sent %d bytes vs %d cold — shipping is not delta-shaped",
			warm.Stats.BytesSent, cold.Stats.BytesSent)
	}

	// Correctness against the single-process pipeline on the mutated web.
	local, err := lmm.LayeredDocRank(dg, lmm.WebConfig{})
	if err != nil {
		t.Fatalf("local LayeredDocRank: %v", err)
	}
	if d := warm.DocRank.L1Diff(local.DocRank); d >= 1e-9 {
		t.Errorf("‖delta-shipped − local‖₁ = %g, want < 1e-9", d)
	}

	// A further warm run over the unchanged next Ranker, handed the delta
	// run's digests, is fully covered and fully cached: zero digest bytes,
	// zero reshipped shards.
	again, err := cl.Coord.RankPreparedCtx(ctx, next, coordinator.Config{}, coordinator.Warm{Digests: warm.Digests})
	if err != nil {
		t.Fatalf("second warm RankPreparedCtx: %v", err)
	}
	if again.Stats.DigestBytesHashed != 0 {
		t.Errorf("second warm run hashed %d digest bytes, want 0", again.Stats.DigestBytesHashed)
	}
	if again.Stats.ShardsReshipped != 0 || again.Stats.CacheHits != ns {
		t.Errorf("second warm run reshipped %d / reused %d, want 0 / %d",
			again.Stats.ShardsReshipped, again.Stats.CacheHits, ns)
	}
}

// TestDigestMemoAlternatingGraphs: a coordinator alternating two
// prepared graphs, each run handed its own graph's digests, hashes digest
// bytes only on each graph's first run — the coordinator keeps nothing
// per graph, so nothing one graph's run does evicts the other's.
func TestDigestMemoAlternatingGraphs(t *testing.T) {
	webA := testWeb()
	webB := testWeb2()
	rkA, err := lmm.NewRanker(webA.Graph, lmm.RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker A: %v", err)
	}
	rkB, err := lmm.NewRanker(webB.Graph, lmm.RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker B: %v", err)
	}
	cl, err := StartLocal(2)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer cl.Close()

	ctx := context.Background()
	digests := map[*lmm.Ranker]*coordinator.Digests{}
	for i, rk := range []*lmm.Ranker{rkA, rkB} {
		res, err := cl.Coord.RankPreparedCtx(ctx, rk, coordinator.Config{}, coordinator.Warm{})
		if err != nil {
			t.Fatalf("cold run %d: %v", i, err)
		}
		if res.Stats.DigestBytesHashed == 0 {
			t.Fatalf("cold run %d hashed no digest bytes", i)
		}
		digests[rk] = res.Digests
	}
	// Alternate warm: every run must be covered by its graph's digests.
	for i, rk := range []*lmm.Ranker{rkA, rkB, rkA, rkB} {
		res, err := cl.Coord.RankPreparedCtx(ctx, rk, coordinator.Config{}, coordinator.Warm{Digests: digests[rk]})
		if err != nil {
			t.Fatalf("warm run %d: %v", i, err)
		}
		if res.Stats.DigestBytesHashed != 0 {
			t.Errorf("alternating warm run %d hashed %d digest bytes, want 0 (carried digests)",
				i, res.Stats.DigestBytesHashed)
		}
	}
}
