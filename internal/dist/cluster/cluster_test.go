package cluster

import (
	"testing"
	"time"

	"lmmrank/internal/dist/coordinator"
	"lmmrank/internal/lmm"
	"lmmrank/internal/webgen"
)

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
// to solver tolerance, with both the central and the decentralized
// SiteRank variants.
func TestPartitionTheoremOverTheWire(t *testing.T) {
	web := testWeb()
	ref, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{})
	if err != nil {
		t.Fatalf("reference LayeredDocRank: %v", err)
	}

	for _, mode := range []coordinator.SiteRankMode{coordinator.SiteRankCentral, coordinator.SiteRankSync} {
		t.Run(mode.String(), func(t *testing.T) {
			cl, err := StartLocal(3)
			if err != nil {
				t.Fatalf("StartLocal: %v", err)
			}
			defer cl.Close()

			res, err := cl.Coord.Rank(web.Graph, coordinator.Config{SiteRank: mode})
			if err != nil {
				t.Fatalf("Rank: %v", err)
			}
			if d := res.DocRank.L1Diff(ref.DocRank); d >= 1e-9 {
				t.Errorf("‖distributed − LayeredDocRank‖₁ = %g, want < 1e-9", d)
			}
			if d := res.SiteRank.L1Diff(ref.SiteRank); d >= 1e-9 {
				t.Errorf("‖distributed − reference‖₁ on SiteRank = %g, want < 1e-9", d)
			}
			if res.Stats.SiteRankRounds == 0 {
				t.Error("SiteRankRounds not recorded")
			}
			if res.Stats.Messages == 0 || res.Stats.BytesSent == 0 || res.Stats.BytesReceived == 0 {
				t.Errorf("transport stats are decorative: %+v", res.Stats)
			}
		})
	}
}

// TestDeterminism re-runs the same distributed ranking and demands
// bitwise-identical output — partial sums must reduce in a fixed order
// regardless of goroutine scheduling and map iteration.
func TestDeterminism(t *testing.T) {
	web := testWeb()
	for _, mode := range []coordinator.SiteRankMode{coordinator.SiteRankCentral, coordinator.SiteRankSync} {
		var prev []float64
		for run := 0; run < 2; run++ {
			cl, err := StartLocal(4)
			if err != nil {
				t.Fatalf("StartLocal: %v", err)
			}
			res, err := cl.Coord.Rank(web.Graph, coordinator.Config{SiteRank: mode})
			cl.Close()
			if err != nil {
				t.Fatalf("Rank (mode=%v, run %d): %v", mode, run, err)
			}
			if prev == nil {
				prev = res.DocRank
				continue
			}
			for i, x := range res.DocRank {
				if x != prev[i] {
					t.Fatalf("mode=%v: run differs at doc %d: %g vs %g", mode, i, x, prev[i])
				}
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
		res, err := cl.Coord.Rank(web.Graph, coordinator.Config{})
		if err != nil {
			t.Fatalf("Rank: %v", err)
		}
		ref, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{})
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if d := res.DocRank.L1Diff(ref.DocRank); d >= 1e-9 {
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
	if _, err := cl.Coord.Rank(web.Graph, coordinator.Config{SiteRank: coordinator.SiteRankSync}); err != nil {
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
	res, err := cl.Coord.Rank(web.Graph, coordinator.Config{SiteRank: coordinator.SiteRankSync})
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	ref, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if d := res.DocRank.L1Diff(ref.DocRank); d >= 1e-9 {
		t.Errorf("L1 gap %g with idle workers", d)
	}
}

// TestRankPrepared reuses one precomputed lmm.Ranker across several
// distributed runs (the serving path): every run must reproduce the
// one-shot Rank bitwise, in both SiteRank modes.
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

	for _, mode := range []coordinator.SiteRankMode{coordinator.SiteRankCentral, coordinator.SiteRankSync} {
		cfg := coordinator.Config{SiteRank: mode}
		oneShot, err := cl.Coord.Rank(web.Graph, cfg)
		if err != nil {
			t.Fatalf("Rank (mode=%v): %v", mode, err)
		}
		for run := 0; run < 2; run++ {
			res, err := cl.Coord.RankPrepared(rk, cfg)
			if err != nil {
				t.Fatalf("RankPrepared (mode=%v, run %d): %v", mode, run, err)
			}
			if d := res.DocRank.L1Diff(oneShot.DocRank); d != 0 {
				t.Errorf("mode=%v run %d: DocRank differs from one-shot Rank by %g", mode, run, d)
			}
			if d := res.SiteRank.L1Diff(oneShot.SiteRank); d != 0 {
				t.Errorf("mode=%v run %d: SiteRank differs by %g", mode, run, d)
			}
		}
	}
}

// TestBatchedSiteRankMatchesUnbatched is the round-batching correctness
// claim: exchanging K power rounds per message against the replicated
// chain must reproduce the one-round-per-exchange protocol to summation
// rounding (<1e-9), while measurably cutting message count.
func TestBatchedSiteRankMatchesUnbatched(t *testing.T) {
	web := testWeb()
	cl, err := StartLocal(3)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer cl.Close()

	unbatched, err := cl.Coord.Rank(web.Graph, coordinator.Config{SiteRank: coordinator.SiteRankSync})
	if err != nil {
		t.Fatalf("unbatched Rank: %v", err)
	}
	batched, err := cl.Coord.Rank(web.Graph, coordinator.Config{SiteRank: coordinator.SiteRankBatched, BatchRounds: 4})
	if err != nil {
		t.Fatalf("batched Rank: %v", err)
	}

	if d := batched.DocRank.L1Diff(unbatched.DocRank); d >= 1e-9 {
		t.Errorf("‖batched − unbatched‖₁ on DocRank = %g, want < 1e-9", d)
	}
	if d := batched.SiteRank.L1Diff(unbatched.SiteRank); d >= 1e-9 {
		t.Errorf("‖batched − unbatched‖₁ on SiteRank = %g, want < 1e-9", d)
	}
	if batched.Stats.BatchMessagesSaved <= 0 {
		t.Errorf("BatchMessagesSaved = %d, want > 0", batched.Stats.BatchMessagesSaved)
	}
	if batched.Stats.Messages >= unbatched.Stats.Messages {
		t.Errorf("batched run used %d messages, unbatched %d — batching must cut message count",
			batched.Stats.Messages, unbatched.Stats.Messages)
	}
	if batched.Stats.SiteRankRounds == 0 {
		t.Error("batched run recorded no SiteRank rounds")
	}
}

// TestShardCacheSkipsReshipping is the streaming-load claim: a repeated
// RankPrepared against warm workers declares every shard by digest, is
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

	cold, err := cl.Coord.RankPrepared(rk, coordinator.Config{})
	if err != nil {
		t.Fatalf("cold RankPrepared: %v", err)
	}
	warm, err := cl.Coord.RankPrepared(rk, coordinator.Config{})
	if err != nil {
		t.Fatalf("warm RankPrepared: %v", err)
	}

	ns := web.Graph.NumSites()
	if cold.Stats.CacheHits != 0 || cold.Stats.CacheMisses != ns {
		t.Errorf("cold run: %d hits / %d misses, want 0 / %d",
			cold.Stats.CacheHits, cold.Stats.CacheMisses, ns)
	}
	if warm.Stats.CacheHits != ns || warm.Stats.CacheMisses != 0 {
		t.Errorf("warm run: %d hits / %d misses, want %d / 0",
			warm.Stats.CacheHits, warm.Stats.CacheMisses, ns)
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
	if d := warm.DocRank.L1Diff(cold.DocRank); d != 0 {
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

	if _, err := cl.Coord.Rank(web.Graph, coordinator.Config{}); err != nil {
		t.Fatalf("first Rank: %v", err)
	}
	if err := cl.Kill(2); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	res, err := cl.Coord.Rank(web.Graph, coordinator.Config{
		Retry: coordinator.RetryPolicy{MaxWorkerFailures: 1},
	})
	if err != nil {
		t.Fatalf("Rank after kill: %v", err)
	}
	if d := res.DocRank.L1Diff(ref.DocRank); d >= 1e-9 {
		t.Errorf("‖post-kill − reference‖₁ = %g, want < 1e-9", d)
	}
	if res.Stats.WorkersLost != 1 || res.Stats.Reassignments < 1 {
		t.Errorf("Stats after kill: lost=%d reassigned=%d, want 1 and >= 1",
			res.Stats.WorkersLost, res.Stats.Reassignments)
	}
	// A third run must not re-discover the dead worker: it starts from
	// the two survivors and needs no retry budget at all.
	again, err := cl.Coord.Rank(web.Graph, coordinator.Config{})
	if err != nil {
		t.Fatalf("Rank on the shrunken fleet: %v", err)
	}
	if again.Stats.WorkersLost != 0 {
		t.Errorf("shrunken-fleet run reports %d losses, want 0", again.Stats.WorkersLost)
	}
	if d := again.DocRank.L1Diff(ref.DocRank); d >= 1e-9 {
		t.Errorf("‖shrunken-fleet − reference‖₁ = %g, want < 1e-9", d)
	}
}
