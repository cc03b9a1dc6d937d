package cluster

import (
	"context"
	"testing"
	"time"

	"lmmrank/internal/dist/coordinator"
	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/matrix"
	"lmmrank/internal/webgen"
)

// rank is one run of cl's coordinator over dg from nothing known, on a
// Ranker built for it as an engine builds one.
func rank(ctx context.Context, cl *Local, dg *graph.DocGraph, cfg coordinator.Config) (*coordinator.Result, error) {
	rk, err := lmm.NewRanker(dg, lmm.RankerOptions{})
	if err != nil {
		return nil, err
	}
	return cl.Coord.RankPreparedCtx(ctx, rk, cfg, coordinator.Warm{})
}

// docRank composes a run's local DocRanks under dg's πS at the defaults
// into its global DocRank, the answer a caller of the coordinator builds.
func docRank(dg *graph.DocGraph, res *coordinator.Result) matrix.Vector {
	return composeUnder(dg, lmm.WebConfig{}, res)
}

// composeUnder composes a run's local DocRanks under the πS cfg's site
// layer gives dg, solved on a Ranker of its own.
func composeUnder(dg *graph.DocGraph, cfg lmm.WebConfig, res *coordinator.Result) matrix.Vector {
	rk, err := lmm.NewRanker(dg, lmm.RankerOptions{})
	if err != nil {
		panic(err)
	}
	site, _, err := rk.RankSites(cfg)
	if err != nil {
		panic(err)
	}
	return lmm.ComposeDocRank(dg, site, res.LocalRanks)
}

// syncIgnored is the retired fleet SiteRank mode, which a run ignores.
// The tests that ran both modes keep a leg that names it (modeLegs): a
// config that still does (cmd/lmmload's dist-wan) must run the central
// path.
const syncIgnored = coordinator.SiteRankSync

var modeLegs = []struct {
	name string
	cfg  coordinator.Config
}{{"central", coordinator.Config{}}, {"sync", coordinator.Config{SiteRank: syncIgnored}}}

func testWeb() *webgen.Web {
	return webgen.Generate(webgen.Config{
		Seed:                42,
		Sites:               20,
		MeanSitePages:       12,
		DynamicClusterPages: 60,
		DocClusterPages:     60,
	})
}

// TestPartitionTheoremOverTheWire is the core correctness claim: the
// distributed runtime must reproduce the single-process Layered Method
// to solver tolerance, also under a config naming the retired fleet
// SiteRank mode.
func TestPartitionTheoremOverTheWire(t *testing.T) {
	web := testWeb()
	ref, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{})
	if err != nil {
		t.Fatalf("reference LayeredDocRank: %v", err)
	}

	for _, leg := range modeLegs {
		t.Run(leg.name, func(t *testing.T) {
			cl, err := StartLocal(3)
			if err != nil {
				t.Fatalf("StartLocal: %v", err)
			}
			defer cl.Close()

			res, err := rank(context.Background(), cl, web.Graph, leg.cfg)
			if err != nil {
				t.Fatalf("Rank: %v", err)
			}
			if d := docRank(web.Graph, res).L1Diff(ref.DocRank); d >= 1e-9 {
				t.Errorf("‖distributed − LayeredDocRank‖₁ = %g, want < 1e-9", d)
			}
			if res.Stats.Messages == 0 || res.Stats.BytesSent == 0 || res.Stats.BytesReceived == 0 {
				t.Errorf("transport stats are decorative: %+v", res.Stats)
			}
		})
	}
}

// TestDeterminism re-runs the same distributed ranking and demands
// bitwise-identical output — whatever the goroutine scheduling and map
// iteration.
func TestDeterminism(t *testing.T) {
	web := testWeb()
	var prev []float64
	for run := 0; run < 2; run++ {
		cl, err := StartLocal(4)
		if err != nil {
			t.Fatalf("StartLocal: %v", err)
		}
		res, err := rank(context.Background(), cl, web.Graph, coordinator.Config{})
		cl.Close()
		if err != nil {
			t.Fatalf("Rank (run %d): %v", run, err)
		}
		if prev == nil {
			prev = docRank(web.Graph, res)
			continue
		}
		for i, x := range docRank(web.Graph, res) {
			if x != prev[i] {
				t.Fatalf("run differs at doc %d: %g vs %g", i, x, prev[i])
			}
		}
	}
}

// TestRepeatedRank reuses one fleet for several runs; shards from the
// previous run must be fully replaced, not accumulated.
func TestRepeatedRank(t *testing.T) {
	webA := testWeb()
	webB := webgen.Generate(webgen.Config{
		Seed:                7,
		Sites:               9,
		MeanSitePages:       8,
		DynamicClusterPages: 20,
		DocClusterPages:     20,
	})
	cl, err := StartLocal(2)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer cl.Close()

	for _, web := range []*webgen.Web{webA, webB, webA} {
		res, err := rank(context.Background(), cl, web.Graph, coordinator.Config{})
		if err != nil {
			t.Fatalf("Rank: %v", err)
		}
		ref, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{})
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if d := docRank(web.Graph, res).L1Diff(ref.DocRank); d >= 1e-9 {
			t.Errorf("after refit to %d sites: L1 gap %g", web.Graph.NumSites(), d)
		}
	}
}

// TestWorkerSideStats asserts the peers account the same conversation
// the coordinator does: fleet-wide worker byte counters must mirror the
// coordinator's (sent↔received swapped).
func TestWorkerSideStats(t *testing.T) {
	web := testWeb()
	cl, err := StartLocal(2)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer cl.Close()
	if _, err := rank(context.Background(), cl, web.Graph, coordinator.Config{}); err != nil {
		t.Fatalf("Rank: %v", err)
	}

	// A worker counts a response's bytes after its write returns, which
	// can be after the coordinator has read them: wait for the fleet's
	// counters to settle instead of sampling them mid-update.
	cMsgs, cOut, cIn := cl.Coord.Stats()
	var wMsgs, wIn, wOut uint64
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		wMsgs, wIn, wOut = 0, 0, 0
		for _, w := range cl.Workers {
			st := w.Stats()
			wMsgs += st.Messages
			wIn += st.BytesReceived
			wOut += st.BytesSent
		}
		if (wMsgs == cMsgs && wIn == cOut && wOut == cIn) || time.Now().After(deadline) {
			break
		}
	}
	if wMsgs != cMsgs {
		t.Errorf("message counts disagree: workers served %d, coordinator sent %d", wMsgs, cMsgs)
	}
	if wIn != cOut {
		t.Errorf("byte accounting disagrees: workers received %d, coordinator sent %d", wIn, cOut)
	}
	if wOut != cIn {
		t.Errorf("byte accounting disagrees: workers sent %d, coordinator received %d", wOut, cIn)
	}
}

func TestStartLocalRejectsNonPositive(t *testing.T) {
	if _, err := StartLocal(0); err == nil {
		t.Error("StartLocal(0) succeeded, want error")
	}
}

// TestDoubleClose asserts Close is a no-op the second time, on the
// cluster and on its parts.
func TestDoubleClose(t *testing.T) {
	cl, err := StartLocal(2)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := cl.Close(); err != nil {
		t.Errorf("second cluster Close: %v", err)
	}
	for i, w := range cl.Workers {
		if err := w.Close(); err != nil {
			t.Errorf("worker %d re-Close: %v", i, err)
		}
	}
	if err := cl.Coord.Close(); err != nil {
		t.Errorf("coordinator re-Close: %v", err)
	}
}

// TestMoreWorkersThanSites covers fleets where some workers receive no
// shards at all.
func TestMoreWorkersThanSites(t *testing.T) {
	web := webgen.Generate(webgen.Config{
		Seed:                3,
		Sites:               2,
		MeanSitePages:       5,
		DynamicClusterPages: 5,
		DocClusterPages:     5,
	})
	cl, err := StartLocal(6)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer cl.Close()
	res, err := rank(context.Background(), cl, web.Graph, coordinator.Config{})
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	ref, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if d := docRank(web.Graph, res).L1Diff(ref.DocRank); d >= 1e-9 {
		t.Errorf("L1 gap %g with idle workers", d)
	}
}

// TestRankPrepared reuses one precomputed lmm.Ranker across several
// distributed runs (the serving path), each handed the previous run's
// digests: every run must reproduce the one-shot Rank bitwise.
func TestRankPrepared(t *testing.T) {
	web := testWeb()
	rk, err := lmm.NewRanker(web.Graph, lmm.RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	cl, err := StartLocal(3)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer cl.Close()

	oneShot, err := rank(context.Background(), cl, web.Graph, coordinator.Config{})
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	var known coordinator.Warm
	for run := 0; run < 2; run++ {
		res, err := cl.Coord.RankPreparedCtx(context.Background(), rk, coordinator.Config{}, known)
		if err != nil {
			t.Fatalf("RankPreparedCtx (run %d): %v", run, err)
		}
		known.Digests = res.Digests
		if d := docRank(web.Graph, res).L1Diff(docRank(web.Graph, oneShot)); d != 0 {
			t.Errorf("run %d: DocRank differs from one-shot Rank by %g", run, d)
		}
	}
}

// TestShardCacheSkipsReshipping is the streaming-load claim: a repeated
// RankPreparedCtx against warm workers declares every shard by digest, is
// told none is missing and ships (nearly) no shard bytes, visible both in the cache
// counters and the measured wire traffic.
func TestShardCacheSkipsReshipping(t *testing.T) {
	web := testWeb()
	rk, err := lmm.NewRanker(web.Graph, lmm.RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	cl, err := StartLocal(2)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer cl.Close()

	ctx := context.Background()
	cold, err := cl.Coord.RankPreparedCtx(ctx, rk, coordinator.Config{}, coordinator.Warm{})
	if err != nil {
		t.Fatalf("cold RankPreparedCtx: %v", err)
	}
	warm, err := cl.Coord.RankPreparedCtx(ctx, rk, coordinator.Config{}, coordinator.Warm{Digests: cold.Digests})
	if err != nil {
		t.Fatalf("warm RankPreparedCtx: %v", err)
	}

	ns := web.Graph.NumSites()
	if cold.Stats.CacheHits != 0 || cold.Stats.ShardsReshipped != ns {
		t.Errorf("cold run: %d hits / %d re-shipped, want 0 / %d",
			cold.Stats.CacheHits, cold.Stats.ShardsReshipped, ns)
	}
	if warm.Stats.CacheHits != ns || warm.Stats.ShardsReshipped != 0 {
		t.Errorf("warm run: %d hits / %d re-shipped, want %d / 0",
			warm.Stats.CacheHits, warm.Stats.ShardsReshipped, ns)
	}
	if warm.Stats.ShardBytesSaved == 0 {
		t.Error("warm run reports no shard bytes saved")
	}
	// The warm run still pays for declarations, rank-locals and the SiteRank,
	// but the shard payload — the dominant load cost — is gone.
	if warm.Stats.BytesSent*3 >= cold.Stats.BytesSent {
		t.Errorf("warm run sent %d bytes vs cold %d — cache hits should shrink traffic by > 3x",
			warm.Stats.BytesSent, cold.Stats.BytesSent)
	}
	if d := docRank(web.Graph, warm).L1Diff(docRank(web.Graph, cold)); d != 0 {
		t.Errorf("warm run's DocRank differs from cold by %g, want bitwise equality", d)
	}
	for i, w := range cl.Workers {
		if st := w.Stats(); st.CacheEntries == 0 || st.CacheDocs == 0 {
			t.Errorf("worker %d cache gauges empty after two runs: %+v", i, st)
		}
	}
}

// TestRecoversFromWorkerKilledBetweenRuns kills a real worker under a
// live coordinator and re-ranks with a retry budget: the death is
// discovered at the next exchange, the dead peer's shards are
// reassigned, and the result matches the single-node reference.
func TestRecoversFromWorkerKilledBetweenRuns(t *testing.T) {
	web := testWeb()
	ref, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	cl, err := StartLocal(3)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer cl.Close()

	if _, err := rank(context.Background(), cl, web.Graph, coordinator.Config{}); err != nil {
		t.Fatalf("first Rank: %v", err)
	}
	if err := cl.Kill(2); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	res, err := rank(context.Background(), cl, web.Graph, coordinator.Config{
		Retry: coordinator.RetryPolicy{MaxWorkerFailures: 1},
	})
	if err != nil {
		t.Fatalf("Rank after kill: %v", err)
	}
	if d := docRank(web.Graph, res).L1Diff(ref.DocRank); d >= 1e-9 {
		t.Errorf("‖post-kill − reference‖₁ = %g, want < 1e-9", d)
	}
	if res.Stats.WorkersLost != 1 || res.Stats.Reassignments < 1 {
		t.Errorf("Stats after kill: lost=%d reassigned=%d, want 1 and >= 1",
			res.Stats.WorkersLost, res.Stats.Reassignments)
	}
	// A third run must not re-discover the dead worker: it starts from
	// the two survivors and needs no retry budget at all.
	again, err := rank(context.Background(), cl, web.Graph, coordinator.Config{})
	if err != nil {
		t.Fatalf("Rank on the shrunken fleet: %v", err)
	}
	if again.Stats.WorkersLost != 0 {
		t.Errorf("shrunken-fleet run reports %d losses, want 0", again.Stats.WorkersLost)
	}
	if d := docRank(web.Graph, again).L1Diff(ref.DocRank); d >= 1e-9 {
		t.Errorf("‖shrunken-fleet − reference‖₁ = %g, want < 1e-9", d)
	}
}
