package lmmrank

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"lmmrank/internal/dist/chaos"
	"lmmrank/internal/dist/cluster"
	"lmmrank/internal/dist/wire"
)

// sameBits reports whether two vectors are bit-for-bit the same answer.
func sameBits(a, b Vector) bool { return len(a) == len(b) && a.L1Diff(b) == 0 }

// warmRanks answers q three times on a fresh engine and returns the
// answers: the first is cold, the second starts from what the first
// recorded, the third must repeat the second.
func warmRanks(t *testing.T, eng *DistEngine, q Query) [3]*Result {
	t.Helper()
	var out [3]*Result
	for i := range out {
		res, err := eng.Rank(context.Background(), q)
		if err != nil {
			t.Fatalf("Rank %d: %v", i+1, err)
		}
		out[i] = res
	}
	return out
}

// TestDistEngineWarmMatchesCold is the warm path's acceptance matrix:
// in every SiteRank mode and for every query shape the fleet serves,
// the answers after the first come from the snapshot's retained local
// DocRanks (no local phase), agree with the cold answer and with a
// LocalEngine to < 1e-9, and repeat bit for bit.
func TestDistEngineWarmMatchesCold(t *testing.T) {
	web := engineWeb()
	ns := web.Graph.NumSites()
	local, err := NewLocalEngine(web.Graph, EngineOptions{})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	sitePers := mixedQueries(web.Graph)[1].SitePersonalization
	shapes := []struct {
		name        string
		q           Query
		centralOnly bool
	}{
		{"uniform", Query{}, false},
		{"sitePersonalized", Query{SitePersonalization: sitePers}, false},
		{"threeLayer", Query{ThreeLayer: true}, true},
	}
	modes := []struct {
		name string
		cfg  DistConfig
		// scheduled marks the concurrent asynchronous schedule: its merge
		// order is the scheduler's, so its answers neither repeat to the
		// bit nor hold 1e-9 (its standing pin is 1e-6).
		scheduled bool
	}{
		{"central", DistConfig{}, false},
		{"sync", DistConfig{SiteRank: SiteRankSync}, false},
		{"batched", DistConfig{SiteRank: SiteRankBatched, BatchRounds: 4}, false},
		{"asyncOrdered", DistConfig{SiteRank: SiteRankAsync, AsyncOrdered: true, AsyncSeed: 3}, false},
		{"async", DistConfig{SiteRank: SiteRankAsync}, true},
	}
	for _, m := range modes {
		for _, sh := range shapes {
			if sh.centralOnly && m.cfg.SiteRank != SiteRankCentral {
				continue
			}
			t.Run(m.name+"/"+sh.name, func(t *testing.T) {
				cl, err := StartCluster(3)
				if err != nil {
					t.Fatalf("StartCluster: %v", err)
				}
				defer cl.Close()
				eng, err := NewDistEngine(cl, web.Graph, m.cfg)
				if err != nil {
					t.Fatalf("NewDistEngine: %v", err)
				}
				ref, err := local.Rank(context.Background(), sh.q)
				if err != nil {
					t.Fatalf("local Rank: %v", err)
				}
				tol := 1e-9
				if m.scheduled {
					tol = 1e-6
				}
				got := warmRanks(t, eng, sh.q)
				for i, res := range got {
					if d := res.DocRank.L1Diff(ref.DocRank); d >= tol {
						t.Errorf("answer %d: ‖dist − local‖₁ = %g, want < %g", i+1, d, tol)
					}
					wantReused := ns
					if i == 0 {
						wantReused = 0
					}
					if res.Dist.LocalRanksReused != wantReused || (i > 0 && res.Dist.LocalRankDuration != 0) {
						t.Errorf("answer %d: reused %d local ranks in a %v local phase, want %d and none after the first",
							i+1, res.Dist.LocalRanksReused, res.Dist.LocalRankDuration, wantReused)
					}
				}
				if d := got[1].DocRank.L1Diff(got[0].DocRank); d >= tol {
					t.Errorf("‖warm − cold‖₁ = %g, want < %g", d, tol)
				}
				if !m.scheduled && (!sameBits(got[2].DocRank, got[1].DocRank) || !sameBits(got[2].SiteRank, got[1].SiteRank)) {
					t.Error("the third answer differs from the second: the warm state was not recorded once")
				}
				// Only a uniform two-layer answer is a seed for the next
				// site solve, and the barrier modes converge from it at once.
				if sh.name == "uniform" && m.cfg.SiteRank != SiteRankAsync && got[1].SiteIterations > 3 {
					t.Errorf("warm site layer took %d iterations (cold %d), want <= 3", got[1].SiteIterations, got[0].SiteIterations)
				}
			})
		}
	}
}

// selfLoopHeavyWeb generates a web whose SiteGraph is the shape the
// central in-place solve gains most on and a fleet's power rounds least:
// every site keeps at least 0.95 of its links inside itself, so every
// SiteGraph row has that much of its mass on the diagonal.
func selfLoopHeavyWeb(t *testing.T) *DocGraph {
	t.Helper()
	const sites, pages = 12, 8
	rng := rand.New(rand.NewSource(24))
	url := func(s, p int) string { return fmt.Sprintf("http://s%d.example/p%d", s, p) }
	b := NewGraphBuilder()
	for s := 0; s < sites; s++ {
		for p := 0; p < pages; p++ {
			b.AddDocInSite(url(s, p), fmt.Sprintf("s%d.example", s))
		}
	}
	for s := 0; s < sites; s++ {
		for p := 0; p < pages; p++ {
			for k := 1; k <= 5; k++ {
				b.AddLink(url(s, p), url(s, (p+k)%pages))
			}
		}
		// Two ways out of 42 links: a ring keeps the SiteGraph
		// irreducible, one random link keeps it from being only a ring.
		b.AddLink(url(s, 0), url((s+1)%sites, 0))
		b.AddLink(url(s, 1), url((s+1+rng.Intn(sites-1))%sites, rng.Intn(pages)))
	}
	dg := b.Build()
	m := DeriveSiteGraph(dg, SiteGraphOptions{}).G.TransitionMatrix()
	for s := 0; s < m.Order(); s++ {
		if d := m.At(s, s); d < 0.95 {
			t.Fatalf("site %d keeps %g of its row on the diagonal, want >= 0.95", s, d)
		}
	}
	return dg
}

// TestSiteRankModesMatchCentralOnSelfLoopHeavySites pins every SiteRank
// schedule — power rounds on the fleet — against the central solve, which
// sweeps in place and solves each self-loop exactly, where the two
// iterations differ most: a SiteGraph with >= 0.95 of every row on the
// diagonal. The pins are the standing ones, 1e-9 and 1e-6 for the
// scheduler-ordered async merge.
func TestSiteRankModesMatchCentralOnSelfLoopHeavySites(t *testing.T) {
	dg := selfLoopHeavyWeb(t)
	local, err := NewLocalEngine(dg, EngineOptions{})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	ref, err := local.Rank(context.Background(), Query{})
	if err != nil {
		t.Fatalf("local Rank: %v", err)
	}
	for _, m := range []struct {
		name string
		cfg  DistConfig
		tol  float64
	}{
		{"central", DistConfig{}, 1e-9},
		{"sync", DistConfig{SiteRank: SiteRankSync}, 1e-9},
		{"batched", DistConfig{SiteRank: SiteRankBatched, BatchRounds: 4}, 1e-9},
		{"asyncOrdered", DistConfig{SiteRank: SiteRankAsync, AsyncOrdered: true, AsyncSeed: 3}, 1e-9},
		{"async", DistConfig{SiteRank: SiteRankAsync}, 1e-6},
	} {
		t.Run(m.name, func(t *testing.T) {
			cl, err := StartCluster(3)
			if err != nil {
				t.Fatalf("StartCluster: %v", err)
			}
			defer cl.Close()
			eng, err := NewDistEngine(cl, dg, m.cfg)
			if err != nil {
				t.Fatalf("NewDistEngine: %v", err)
			}
			res, err := eng.Rank(context.Background(), Query{})
			if err != nil {
				t.Fatalf("Rank: %v", err)
			}
			if d := res.SiteRank.L1Diff(ref.SiteRank); d >= m.tol {
				t.Errorf("‖fleet πS − central πS‖₁ = %g, want < %g (%d rounds vs %d sweeps)",
					d, m.tol, res.SiteIterations, ref.SiteIterations)
			}
			if d := res.DocRank.L1Diff(ref.DocRank); d >= m.tol {
				t.Errorf("‖dist − local‖₁ = %g, want < %g", d, m.tol)
			}
		})
	}
}

// TestDistEngineUpdateAsksOnlyChangedSite: Update carries clean sites'
// local DocRanks into the next snapshot by pointer, so after a 1-site
// edit the fleet is asked for exactly that site's — and after that for
// nothing.
func TestDistEngineUpdateAsksOnlyChangedSite(t *testing.T) {
	web := churnTestWeb()
	ns := web.Graph.NumSites()
	ctx := context.Background()
	cl, err := cluster.StartChaosLocal(3)
	if err != nil {
		t.Fatalf("StartChaosLocal: %v", err)
	}
	defer cl.Close()
	script, asked := chaos.RecordSites(wire.KindRankLocal)
	for _, p := range cl.Proxies {
		p.SetScript(script)
	}
	eng, err := NewDistEngine(cl, web.Graph, DistConfig{SiteRank: SiteRankSync})
	if err != nil {
		t.Fatalf("NewDistEngine: %v", err)
	}
	cold, err := eng.Rank(ctx, Query{})
	if err != nil {
		t.Fatalf("cold Rank: %v", err)
	}
	before := eng.snap.Load().state.warm.Load()
	if !before.full || !before.solved {
		t.Fatalf("the first Rank recorded %+v, want a full, solved warm state", before)
	}

	const site = SiteID(6)
	err = eng.Update(ctx, GraphDelta{
		ChangedSites: []SiteID{site},
		Apply:        func(dg *DocGraph) error { editSite(t, dg, site); return nil },
	})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	carried := eng.snap.Load().state.warm.Load()
	for s, v := range carried.Locals {
		switch {
		case SiteID(s) == site && v != nil:
			t.Errorf("the changed site %d kept its stale local rank", s)
		case SiteID(s) != site && &v[0] != &before.Locals[s][0]:
			t.Errorf("clean site %d: local rank was copied or dropped across Update, want the same vector", s)
		}
	}

	asked()
	res, err := eng.Rank(ctx, Query{})
	if err != nil {
		t.Fatalf("post-update Rank: %v", err)
	}
	if got := asked(); !slices.Equal(got, []int{int(site)}) {
		t.Errorf("the fleet was asked for sites %v after a 1-site Update, want [%d]", got, site)
	}
	if res.Dist.LocalRanksReused != ns-1 || res.Dist.ShardsReshipped != 1 {
		t.Errorf("reused %d local ranks and reshipped %d shards, want %d and 1", res.Dist.LocalRanksReused, res.Dist.ShardsReshipped, ns-1)
	}
	if res.SiteIterations >= cold.SiteIterations {
		t.Errorf("site layer took %d rounds from the previous snapshot's πS, want fewer than the %d of a cold start", res.SiteIterations, cold.SiteIterations)
	}
	local, err := NewLocalEngine(eng.DocGraph(), EngineOptions{})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	ref, err := local.Rank(ctx, Query{})
	if err != nil {
		t.Fatalf("local Rank: %v", err)
	}
	if d := res.DocRank.L1Diff(ref.DocRank); d >= 1e-9 {
		t.Errorf("‖dist − cold local‖₁ after Update = %g, want < 1e-9", d)
	}
	if _, err := eng.Rank(ctx, Query{}); err != nil {
		t.Fatalf("second post-update Rank: %v", err)
	}
	if got := asked(); len(got) != 0 {
		t.Errorf("the fleet was asked again for sites %v, want nothing after the changed site was learned", got)
	}
}

// TestDistEngineWarmSurvivesWorkerLoss: the retained local DocRanks are
// the coordinator's, not the fleet's — a worker that dies between two
// queries costs the second a reassignment, not a local phase.
func TestDistEngineWarmSurvivesWorkerLoss(t *testing.T) {
	web := engineWeb()
	ctx := context.Background()
	cl, err := StartCluster(3)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()
	eng, err := NewDistEngine(cl, web.Graph, DistConfig{
		SiteRank: SiteRankSync,
		Retry:    DistRetryPolicy{MaxWorkerFailures: 1},
	})
	if err != nil {
		t.Fatalf("NewDistEngine: %v", err)
	}
	first, err := eng.Rank(ctx, Query{})
	if err != nil {
		t.Fatalf("first Rank: %v", err)
	}
	if err := cl.Kill(1); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	second, err := eng.Rank(ctx, Query{})
	if err != nil {
		t.Fatalf("Rank after the kill: %v", err)
	}
	st := second.Dist
	if st.WorkersLost != 1 {
		t.Fatalf("WorkersLost = %d, want 1 — the kill did not land in this run", st.WorkersLost)
	}
	if st.LocalRanksReused != web.Graph.NumSites() || st.LocalRankDuration != 0 {
		t.Errorf("reused %d local ranks in a %v local phase, want all %d and none", st.LocalRanksReused, st.LocalRankDuration, web.Graph.NumSites())
	}
	if d := second.DocRank.L1Diff(first.DocRank); d >= 1e-9 {
		t.Errorf("‖after − before the loss‖₁ = %g, want < 1e-9", d)
	}
}

// TestDistEngineNonDefaultTolBypassesWarm: the warm state is the
// default-parameter solution, so a query with its own Tol neither
// starts from it nor becomes it.
func TestDistEngineNonDefaultTolBypassesWarm(t *testing.T) {
	web := engineWeb()
	ctx := context.Background()
	cl, err := StartCluster(2)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()
	eng, err := NewDistEngine(cl, web.Graph, DistConfig{})
	if err != nil {
		t.Fatalf("NewDistEngine: %v", err)
	}
	loose := Query{Tol: 1e-4}
	if _, err := eng.Rank(ctx, loose); err != nil {
		t.Fatalf("loose Rank: %v", err)
	}
	if w := eng.snap.Load().state.warm.Load(); w.full || w.solved {
		t.Fatalf("a Tol=1e-4 query recorded warm state %+v", w)
	}
	if _, err := eng.Rank(ctx, Query{}); err != nil {
		t.Fatalf("default Rank: %v", err)
	}
	recorded := eng.snap.Load().state.warm.Load()
	if !recorded.full || !recorded.solved {
		t.Fatalf("a default query recorded %+v, want a full, solved warm state", recorded)
	}
	res, err := eng.Rank(ctx, loose)
	if err != nil {
		t.Fatalf("loose Rank on a warm snapshot: %v", err)
	}
	if res.Dist.LocalRanksReused != 0 {
		t.Errorf("a Tol=1e-4 query reused %d default-tolerance local ranks, want 0", res.Dist.LocalRanksReused)
	}
	if eng.snap.Load().state.warm.Load() != recorded {
		t.Error("a Tol=1e-4 query replaced the snapshot's warm state")
	}
}

// TestDistEnginePinnedRankKeepsOldWarmState: the warm state lives on the
// snapshot, so a Rank that pinned its snapshot before an Update
// published finishes on the old graph's locals and πS — bit-identical
// to the answers served before the swap.
func TestDistEnginePinnedRankKeepsOldWarmState(t *testing.T) {
	web := churnTestWeb()
	ctx := context.Background()
	cl, err := StartCluster(2)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()
	eng, err := NewDistEngine(cl, web.Graph, DistConfig{SiteRank: SiteRankSync})
	if err != nil {
		t.Fatalf("NewDistEngine: %v", err)
	}
	before := warmRanks(t, eng, Query{})[1]
	pinned := eng.snap.Load() // what a Rank in flight across the Update holds
	err = eng.Update(ctx, GraphDelta{
		ChangedSites: []SiteID{4},
		Apply:        func(dg *DocGraph) error { editSite(t, dg, 4); return nil },
	})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	after, err := eng.Rank(ctx, Query{})
	if err != nil {
		t.Fatalf("Rank on the new snapshot: %v", err)
	}
	if sameBits(after.DocRank, before.DocRank) {
		t.Fatal("the edit did not change the ranking; the test pins nothing")
	}
	late, err := eng.solve(ctx, pinned, Query{})
	if err != nil {
		t.Fatalf("Rank pinned to the old snapshot: %v", err)
	}
	if late.Dist.LocalRanksReused != web.Graph.NumSites() {
		t.Errorf("the pinned Rank reused %d local ranks, want all %d of its own snapshot's", late.Dist.LocalRanksReused, web.Graph.NumSites())
	}
	if !sameBits(late.DocRank, before.DocRank) {
		t.Errorf("‖pinned − pre-update‖₁ = %g, want bit-identical", late.DocRank.L1Diff(before.DocRank))
	}
}

// TestDistEngineResultOwnership: the snapshot retains local DocRanks
// and a πS, and hands out copies — scribbling over a returned Result
// never reaches the next answer.
func TestDistEngineResultOwnership(t *testing.T) {
	web := engineWeb()
	ctx := context.Background()
	cl, err := StartCluster(2)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()
	eng, err := NewDistEngine(cl, web.Graph, DistConfig{})
	if err != nil {
		t.Fatalf("NewDistEngine: %v", err)
	}
	q := Query{WantLocalRanks: true}
	got := warmRanks(t, eng, q)
	want := got[2].DocRank.Clone()
	for _, res := range got {
		res.DocRank.Fill(-1)
		res.SiteRank.Fill(-1)
		for _, v := range res.LocalRanks {
			v.Fill(-1)
		}
	}
	res, err := eng.Rank(ctx, q)
	if err != nil {
		t.Fatalf("Rank after the scribble: %v", err)
	}
	if !sameBits(res.DocRank, want) {
		t.Errorf("‖after − before the scribble‖₁ = %g, want bit-identical: a returned slice aliases the snapshot", res.DocRank.L1Diff(want))
	}
	for s, v := range res.LocalRanks {
		if len(v) > 0 && v[0] < 0 {
			t.Fatalf("site %d: returned LocalRanks alias an earlier Result's", s)
		}
	}
}

// TestDistEngineWarmRankAllocation pins what a warm Rank may allocate
// process-wide (coordinator, wire and the in-process workers): the
// caller's DocRank plus bookkeeping that does not grow with the
// document layer — 1.5 × 8·NumDocs + 64 KiB. A cold Rank allocates
// several full-length vectors beyond its answer.
func TestDistEngineWarmRankAllocation(t *testing.T) {
	web := GenerateCampusWeb(CampusWebConfig{
		Seed: 5, Sites: 40, MeanSitePages: 250,
		DynamicClusterPages: 500, DocClusterPages: 500,
	})
	ctx := context.Background()
	cl, err := StartCluster(4)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()
	eng, err := NewDistEngine(cl, web.Graph, DistConfig{SiteRank: SiteRankSync})
	if err != nil {
		t.Fatalf("NewDistEngine: %v", err)
	}
	warmRanks(t, eng, Query{})

	const ranks = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < ranks; i++ {
		if _, err := eng.Rank(ctx, Query{}); err != nil {
			t.Fatalf("warm Rank: %v", err)
		}
	}
	runtime.ReadMemStats(&m1)
	perRank := float64(m1.TotalAlloc-m0.TotalAlloc) / ranks
	limit := 1.5*8*float64(web.Graph.NumDocs()) + 64<<10
	if perRank > limit {
		t.Errorf("a warm Rank allocates %.0f bytes over %d documents, want <= %.0f", perRank, web.Graph.NumDocs(), limit)
	}
	t.Logf("warm Rank: %.0f bytes allocated, %d documents (8·NumDocs = %d)", perRank, web.Graph.NumDocs(), 8*web.Graph.NumDocs())
}
