package lmmrank

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"lmmrank/internal/dist/chaos"
	"lmmrank/internal/dist/cluster"
	"lmmrank/internal/dist/wire"
	"lmmrank/internal/lmm"
	"lmmrank/internal/markov"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
	"lmmrank/internal/webgen"
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

// shapeName names a query by the fields it sets.
func shapeName(q Query) string {
	var parts []string
	for _, f := range []struct {
		set  bool
		name string
	}{
		{q.SitePersonalization != nil, "sitePersonalized"}, {q.ThreeLayer, "threeLayer"},
		{q.TopK > 0, "topK"}, {q.WantLocalRanks, "localRanks"},
	} {
		if f.set {
			parts = append(parts, f.name)
		}
	}
	if len(parts) == 0 {
		return "uniform"
	}
	return strings.Join(parts, "+")
}

// TestDistEngineWarmMatchesCold is the one-snapshot-shape contract over
// every default-parameter query shape (everyShape's), each on a fresh
// snapshot, on each of distModes' configs: the first answer fills the
// snapshot on the fleet and agrees with a LocalEngine's to < 1e-9; every
// later one is composed from that fill — no local phase, every local
// DocRank reused, no message — and repeats the first bit for bit.
func TestDistEngineWarmMatchesCold(t *testing.T) {
	web := engineWeb()
	ns := web.Graph.NumSites()
	ctx := context.Background()
	local, err := NewLocalEngine(web.Graph, EngineOptions{})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	for _, m := range distModes {
		cl, err := StartCluster(3)
		if err != nil {
			t.Fatalf("StartCluster: %v", err)
		}
		defer cl.Close()
		for _, q := range everyShape(web.Graph) {
			if !q.fromSnapshot() {
				continue
			}
			t.Run(m.name+"/"+shapeName(q), func(t *testing.T) {
				ref, err := local.Rank(ctx, q)
				if err != nil {
					t.Fatalf("local Rank: %v", err)
				}
				eng, err := NewDistEngine(cl, web.Graph, m.cfg)
				if err != nil {
					t.Fatalf("NewDistEngine: %v", err)
				}
				got := warmRanks(t, eng, q)
				if d := got[0].DocRank.L1Diff(ref.DocRank); d >= 1e-9 {
					t.Errorf("‖dist − local‖₁ = %g, want < 1e-9", d)
				}
				if d := got[0].SiteRank.L1Diff(ref.SiteRank); d >= 1e-9 {
					t.Errorf("‖dist − local‖₁ on SiteRank = %g, want < 1e-9", d)
				}
				if got[0].Dist.Messages == 0 || got[0].Dist.LocalRanksReused != 0 || !slices.ContainsFunc(got[0].LocalIterations, func(n int) bool { return n > 0 }) {
					t.Errorf("the first answer sent %d messages, reused %d local ranks and reports local sweeps %v: nothing filled the snapshot",
						got[0].Dist.Messages, got[0].Dist.LocalRanksReused, got[0].LocalIterations)
				}
				for i, res := range got[1:] {
					st := res.Dist
					if st.LocalRanksReused != ns || st.LocalRankDuration != 0 {
						t.Errorf("answer %d: reused %d local ranks in a %v local phase, want all %d and none", i+2, st.LocalRanksReused, st.LocalRankDuration, ns)
					}
					if st.Messages != 0 {
						t.Errorf("answer %d sent %d messages, want none", i+2, st.Messages)
					}
					if q.SitePersonalization == nil && res.SiteIterations != 0 {
						t.Errorf("answer %d solved the site layer in %d iterations, want it composed from the fill", i+2, res.SiteIterations)
					}
					if !sameAnswer(res, got[0]) {
						t.Errorf("answer %d is not the first answer's bits", i+2)
					}
				}
			})
		}
	}
}

// distModes are the legs of the tests that ran both SiteRank modes: the
// default config, and one still naming the retired fleet mode
// SiteRankSync, which a DistEngine ignores — a config that does
// (cmd/lmmload's dist-wan) must serve as the default does.
var distModes = []struct {
	name string
	cfg  DistConfig
}{
	{"central", DistConfig{}},
	{"sync", DistConfig{SiteRank: SiteRankSync}},
}

// sameAnswer reports whether two Results are bit for bit the same answer:
// vectors, local ranks and Top tables.
func sameAnswer(a, b *Result) bool {
	if !sameBits(a.DocRank, b.DocRank) || !sameBits(a.SiteRank, b.SiteRank) ||
		len(a.LocalRanks) != len(b.LocalRanks) || !slices.Equal(a.Top, b.Top) {
		return false
	}
	for s := range a.LocalRanks {
		if !sameBits(a.LocalRanks[s], b.LocalRanks[s]) {
			return false
		}
	}
	return true
}

// TestDistEngineConcurrentFirstQueriesShareOneFill: first queries that
// race on an unfilled snapshot — a fresh engine's, and one an Update just
// published — may each run the fleet, but one fill is published and every
// one of them composes from it.
func TestDistEngineConcurrentFirstQueriesShareOneFill(t *testing.T) {
	web := churnTestWeb()
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
	race := func(when string) {
		t.Helper()
		shapes := []Query{{}, {TopK: 5}, {WantLocalRanks: true}, {}}
		got := make([]*Result, len(shapes))
		errs := make([]error, len(shapes))
		var wg sync.WaitGroup
		for i, q := range shapes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = eng.Rank(ctx, q)
			}()
		}
		wg.Wait()
		snap := eng.snap.Load()
		fill := snap.sol.Load()
		if fill == nil {
			t.Fatalf("%s: no fill was published", when)
		}
		want := lmm.ComposeDocRank(snap.dg, fill.site, fill.locals)
		for i, res := range got {
			if errs[i] != nil {
				t.Fatalf("%s: query %d: %v", when, i, errs[i])
			}
			if !sameBits(res.DocRank, want) || !sameBits(res.SiteRank, fill.site) {
				t.Errorf("%s: query %d is not composed from the published fill", when, i)
			}
		}
		warm, err := eng.Rank(ctx, Query{})
		if err != nil {
			t.Fatalf("%s: warm Rank: %v", when, err)
		}
		if warm.Dist.Messages != 0 || snap.sol.Load() != fill || !sameBits(warm.DocRank, want) {
			t.Errorf("%s: a warm Rank sent %d messages or replaced the fill", when, warm.Dist.Messages)
		}
	}
	race("fresh engine")
	err = eng.Update(ctx, GraphDelta{
		Apply: func(dg *DocGraph) error { editSite(t, dg, 6); return nil },
	})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	race("after an Update")
}

// selfLoopHeavyWeb generates a web whose SiteGraph is the shape the
// in-place solve gains most on: every site keeps at least 0.95 of its links inside itself, so every
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

// TestSiteRankModesMatchCentralOnSelfLoopHeavySites pins a fleet's πS
// against a LocalEngine's on a SiteGraph with >= 0.95 of every row on the
// diagonal, on each of distModes' configs. The pin is the standing one,
// 1e-9.
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
	const tol = 1e-9
	for _, m := range distModes {
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
			if d := res.SiteRank.L1Diff(ref.SiteRank); d >= tol {
				t.Errorf("‖fleet πS − local πS‖₁ = %g, want < %g (%d sweeps vs %d)",
					d, tol, res.SiteIterations, ref.SiteIterations)
			}
			if d := res.DocRank.L1Diff(ref.DocRank); d >= tol {
				t.Errorf("‖dist − local‖₁ = %g, want < %g", d, tol)
			}
			t.Logf("‖fleet πS − local πS‖₁ = %.2g after %d sweeps (local: %d sweeps)",
				res.SiteRank.L1Diff(ref.SiteRank), res.SiteIterations, ref.SiteIterations)
		})
	}
}

// powerSteps counts the damped power steps matrix.PowerLeft needs on dg's
// site chain at the default damping and tolerance, from start (nil =
// uniform).
func powerSteps(t *testing.T, dg *DocGraph, start Vector) int {
	t.Helper()
	op, err := pagerank.NewOperator(DeriveSiteGraph(dg, SiteGraphOptions{}).G.TransitionMatrix(), pagerank.DefaultDamping, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := matrix.PowerLeft(op, matrix.PowerOptions{Start: start})
	if err != nil {
		t.Fatal(err)
	}
	return res.Iterations
}

// TestFleetRoundsBeatPowerSteps is TestRankSweepsBeatPowerSteps' fleet
// twin, on the same webgen web: a fleet run's site layer, swept in place
// on the coordinator, takes at most a third of the power steps the same
// stop needs — cold, and on the first Rank after a 1-site Update, which
// starts both from the previous snapshot's πS. Its one leg names the
// retired fleet mode, whose point-Jacobi rounds it pinned.
func TestFleetRoundsBeatPowerSteps(t *testing.T) {
	gen := webgen.Small()
	gen.Seed = 24
	ctx := context.Background()
	for _, m := range distModes[1:] {
		t.Run(m.name, func(t *testing.T) {
			dg := webgen.Generate(gen).Graph
			cl, err := StartCluster(3)
			if err != nil {
				t.Fatalf("StartCluster: %v", err)
			}
			defer cl.Close()
			eng, err := NewDistEngine(cl, dg, m.cfg)
			if err != nil {
				t.Fatalf("NewDistEngine: %v", err)
			}
			cold, err := eng.Rank(ctx, Query{})
			if err != nil {
				t.Fatalf("cold Rank: %v", err)
			}
			coldPower := powerSteps(t, eng.DocGraph(), nil)
			if cold.SiteIterations == 0 || 3*cold.SiteIterations > coldPower {
				t.Errorf("cold: %d sweeps, power method %d: want at most a third", cold.SiteIterations, coldPower)
			}

			site := SiteID(0)
			for len(dg.Sites[site].Docs) < 3 {
				site++
			}
			err = eng.Update(ctx, GraphDelta{
				Apply: func(dg *DocGraph) error { editSite(t, dg, site); return nil },
			})
			if err != nil {
				t.Fatalf("Update: %v", err)
			}
			edited, err := eng.Rank(ctx, Query{})
			if err != nil {
				t.Fatalf("post-update Rank: %v", err)
			}
			editPower := powerSteps(t, eng.DocGraph(), cold.SiteRank)
			if edited.SiteIterations == 0 || 3*edited.SiteIterations > editPower {
				t.Errorf("after a 1-site edit: %d sweeps, power method %d: want at most a third", edited.SiteIterations, editPower)
			}
			t.Logf("cold %d sweeps vs %d power steps, after the edit %d vs %d", cold.SiteIterations, coldPower, edited.SiteIterations, editPower)
		})
	}
}

// TestDistEngineUpdateAsksOnlyChangedSite: Update carries clean sites'
// local DocRanks into the next snapshot's seed by pointer, so after a
// 1-site edit the fill asks the fleet for exactly that site's — and after
// that nothing asks the fleet for anything.
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
	eng, err := NewDistEngine(cl, web.Graph, DistConfig{})
	if err != nil {
		t.Fatalf("NewDistEngine: %v", err)
	}
	cold, err := eng.Rank(ctx, Query{})
	if err != nil {
		t.Fatalf("cold Rank: %v", err)
	}
	before := eng.snap.Load().sol.Load()
	if before == nil {
		t.Fatal("the first Rank published no fill")
	}

	const site = SiteID(6)
	err = eng.Update(ctx, GraphDelta{
		Apply: func(dg *DocGraph) error { editSite(t, dg, site); return nil },
	})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	next := eng.snap.Load()
	if next.sol.Load() != nil {
		t.Fatal("Update filled the next snapshot: it must send nothing")
	}
	if !sameBits(next.from.site, before.site) {
		t.Error("the next snapshot's fill does not start from the old πS")
	}
	for s, v := range next.from.locals {
		switch {
		case SiteID(s) == site && v != nil:
			t.Errorf("the changed site %d kept its stale local rank", s)
		case SiteID(s) != site && &v[0] != &before.locals[s][0]:
			t.Errorf("clean site %d: local rank was copied or dropped across Update, want the same vector", s)
		}
	}

	asked()
	res, err := eng.Rank(ctx, Query{})
	if err != nil {
		t.Fatalf("post-update Rank: %v", err)
	}
	for s, v := range next.sol.Load().locals {
		if carried := &v[0] == &before.locals[s][0]; carried != (SiteID(s) != site) {
			t.Errorf("site %d (changed: %v): local rank carried by pointer across the Update = %v", s, SiteID(s) == site, carried)
		}
	}
	if got := asked(); !slices.Equal(got, []int{int(site)}) {
		t.Errorf("the fleet was asked for sites %v after a 1-site Update, want [%d]", got, site)
	}
	if res.Dist.LocalRanksReused != ns-1 || res.Dist.ShardsReshipped != 1 {
		t.Errorf("reused %d local ranks and reshipped %d shards, want %d and 1", res.Dist.LocalRanksReused, res.Dist.ShardsReshipped, ns-1)
	}
	if res.SiteIterations >= cold.SiteIterations {
		t.Errorf("site layer took %d sweeps from the previous snapshot's πS, want fewer than the %d of a cold start", res.SiteIterations, cold.SiteIterations)
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
	again, err := eng.Rank(ctx, Query{})
	if err != nil {
		t.Fatalf("second post-update Rank: %v", err)
	}
	if got := asked(); len(got) != 0 || again.Dist.Messages != 0 {
		t.Errorf("the second post-update Rank asked the fleet for sites %v in %d messages, want nothing", got, again.Dist.Messages)
	}

	// Two Updates with no Rank between: the second snapshot's fill starts
	// where the never-filled first one's would have, and asks for both.
	for _, s := range []SiteID{2, 9} {
		if err := eng.Update(ctx, GraphDelta{
			Apply: func(dg *DocGraph) error { editSite(t, dg, s); return nil },
		}); err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	res, err = eng.Rank(ctx, Query{})
	if err != nil {
		t.Fatalf("Rank after two Updates: %v", err)
	}
	if got := asked(); !slices.Equal(got, []int{2, 9}) || res.Dist.LocalRanksReused != ns-2 {
		t.Errorf("after two unfilled 1-site Updates the fleet was asked for sites %v and %d local ranks reused, want [2 9] and %d", got, res.Dist.LocalRanksReused, ns-2)
	}
	if d := res.DocRank.L1Diff(coldRank(t, eng, Query{}).DocRank); d >= 1e-9 {
		t.Errorf("‖dist − cold local‖₁ after two Updates = %g, want < 1e-9", d)
	}
}

// TestUpdateHashesOnlyChangedShards: the snapshot keeps every shard's
// digest and Update carries the clean sites' across, so
// the first Rank after a 1-site edit hashes that site's shard and
// nothing else. The digests hold for any query parameters: a Tol=1e-4
// query on a warm snapshot hashes nothing at all.
func TestUpdateHashesOnlyChangedShards(t *testing.T) {
	ctx := context.Background()
	loose := Query{Tol: 1e-4}
	for _, m := range distModes {
		t.Run(m.name, func(t *testing.T) {
			dg := webgen.Generate(webgen.Small()).Graph
			cl, err := StartCluster(4)
			if err != nil {
				t.Fatalf("StartCluster: %v", err)
			}
			defer cl.Close()
			eng, err := NewDistEngine(cl, dg, m.cfg)
			if err != nil {
				t.Fatalf("NewDistEngine: %v", err)
			}
			rank := func(what string, q Query) *DistStats {
				t.Helper()
				res, err := eng.Rank(ctx, q)
				if err != nil {
					t.Fatalf("%s Rank: %v", what, err)
				}
				return res.Dist
			}
			if cold := rank("cold", Query{}); cold.DigestBytesHashed == 0 {
				t.Fatal("the cold Rank hashed nothing")
			}
			if st := rank("loose", loose); st.DigestBytesHashed != 0 {
				t.Errorf("a Tol=1e-4 query on a warm snapshot hashed %d digest bytes, want 0", st.DigestBytesHashed)
			}

			site := SiteID(0)
			for len(dg.Sites[site].Docs) < 3 {
				site++
			}
			err = eng.Update(ctx, GraphDelta{
				Apply: func(dg *DocGraph) error { editSite(t, dg, site); return nil },
			})
			if err != nil {
				t.Fatalf("Update: %v", err)
			}
			// What the edited site costs to hash: its subgraph's columns.
			sub, _ := eng.snap.Load().base.LocalSubgraph(site)
			c := sub.Columns()
			shard := wire.SiteShard{Degrees: c.Degrees, Targets: c.Targets, ListedPos: c.ListedPos, ListedW: c.ListedW}
			budget := shard.DigestInputBytes()
			edited := rank("post-edit", Query{})
			if edited.ShardsReshipped != 1 {
				t.Errorf("the first Rank after a 1-site Update reshipped %d shards, want 1", edited.ShardsReshipped)
			}
			if edited.DigestBytesHashed == 0 || edited.DigestBytesHashed > budget {
				t.Errorf("the first Rank after a 1-site Update hashed %d digest bytes, want 1 to %d: the edited shard only", edited.DigestBytesHashed, budget)
			}
			if st := rank("post-edit loose", loose); st.DigestBytesHashed != 0 {
				t.Errorf("a Tol=1e-4 query after the edit hashed %d digest bytes, want 0", st.DigestBytesHashed)
			}
		})
	}
}

// TestDistEngineWarmSurvivesWorkerLoss: the snapshot's solutions are
// the coordinator's, not the fleet's — a warm default query answers with
// a worker dead and sends nothing, and the first query after an Update
// pays for the dead worker with a reassignment, not a local phase for the
// clean sites.
func TestDistEngineWarmSurvivesWorkerLoss(t *testing.T) {
	web := churnTestWeb()
	ns := web.Graph.NumSites()
	ctx := context.Background()
	cl, err := StartCluster(3)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()
	eng, err := NewDistEngine(cl, web.Graph, DistConfig{
		Retry: DistRetryPolicy{MaxWorkerFailures: 1},
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
	warm, err := eng.Rank(ctx, Query{})
	if err != nil {
		t.Fatalf("warm Rank after the kill: %v", err)
	}
	if warm.Dist.Messages != 0 || !sameBits(warm.DocRank, first.DocRank) {
		t.Errorf("a warm Rank after the kill sent %d messages, want 0 and the first answer's bits", warm.Dist.Messages)
	}

	const site = SiteID(6)
	err = eng.Update(ctx, GraphDelta{
		Apply: func(dg *DocGraph) error { editSite(t, dg, site); return nil },
	})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	edited, err := eng.Rank(ctx, Query{})
	if err != nil {
		t.Fatalf("post-update Rank after the kill: %v", err)
	}
	st := edited.Dist
	if st.WorkersLost != 1 {
		t.Fatalf("WorkersLost = %d, want 1 — the kill did not land in this run", st.WorkersLost)
	}
	if st.LocalRanksReused != ns-1 {
		t.Errorf("reused %d local ranks, want the %d clean sites'", st.LocalRanksReused, ns-1)
	}
	ref, err := LayeredDocRank(eng.DocGraph(), WebConfig{})
	if err != nil {
		t.Fatalf("LayeredDocRank: %v", err)
	}
	if d := edited.DocRank.L1Diff(ref.DocRank); d >= 1e-9 {
		t.Errorf("‖after the loss − cold‖₁ = %g, want < 1e-9", d)
	}
}

// TestDistEngineNonDefaultTolBypassesWarm: the fill is the
// default-parameter solution, so a query with its own Tol neither starts
// from it nor makes it.
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
	st := eng.snap.Load()
	if st.sol.Load() != nil {
		t.Fatal("a Tol=1e-4 query filled the snapshot")
	}
	if _, err := eng.Rank(ctx, Query{}); err != nil {
		t.Fatalf("default Rank: %v", err)
	}
	fill := st.sol.Load()
	if fill == nil {
		t.Fatal("a default query published no fill")
	}
	res, err := eng.Rank(ctx, loose)
	if err != nil {
		t.Fatalf("loose Rank on a filled snapshot: %v", err)
	}
	if res.Dist.LocalRanksReused != 0 || res.Dist.Messages == 0 {
		t.Errorf("a Tol=1e-4 query reused %d default-tolerance local ranks in %d messages, want 0 in a run of its own",
			res.Dist.LocalRanksReused, res.Dist.Messages)
	}
	if st.sol.Load() != fill {
		t.Error("a Tol=1e-4 query replaced the snapshot's fill")
	}
}

// TestDistEngineSiteLayerMatchesLocal: the site layer is the engine's on
// either backend, weighed over the snapshot's πS on the query's own
// Ranker, so a filled fleet answers each query with parameters of its own
// with a LocalEngine's SiteRank bits and sweep count. A fresh fleet's
// first such query has no πS to start from: it answers from uniform,
// fills nothing, and lands within Tol/(1 − f) of the exact πS.
func TestDistEngineSiteLayerMatchesLocal(t *testing.T) {
	web := engineWeb()
	ctx := context.Background()
	local, err := NewLocalEngine(web.Graph, EngineOptions{})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	cl, err := StartCluster(2)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()

	fresh, err := NewDistEngine(cl, web.Graph, DistConfig{})
	if err != nil {
		t.Fatalf("NewDistEngine: %v", err)
	}
	const f = 0.8
	first, err := fresh.Rank(ctx, Query{Damping: f})
	if err != nil {
		t.Fatalf("first Rank on a fresh fleet: %v", err)
	}
	if fresh.snap.Load().sol.Load() != nil {
		t.Error("a Damping 0.8 query filled the snapshot")
	}
	m := DeriveSiteGraph(web.Graph, SiteGraphOptions{}).G.TransitionMatrix()
	exact, err := matrix.StationaryExact(markov.MaximalIrreducible(m.Dense(), f, nil))
	if err != nil {
		t.Fatalf("exact solve: %v", err)
	}
	if d, bound := first.SiteRank.L1Diff(exact), matrix.DefaultTol/(1-f)+1e-12; d > bound {
		t.Errorf("fresh fleet: ‖πS − π*‖₁ = %g > %g after %d sweeps", d, bound, first.SiteIterations)
	}

	eng, err := NewDistEngine(cl, web.Graph, DistConfig{})
	if err != nil {
		t.Fatalf("NewDistEngine: %v", err)
	}
	if _, err := eng.Rank(ctx, Query{}); err != nil {
		t.Fatalf("filling Rank: %v", err)
	}
	pers := mixedQueries(web.Graph)[1].SitePersonalization
	for _, q := range []Query{{Damping: f}, {Tol: 1e-4}, {SitePersonalization: pers, Damping: f}} {
		got, err := eng.Rank(ctx, q)
		if err != nil {
			t.Fatalf("%+v: fleet Rank: %v", q, err)
		}
		want, err := local.Rank(ctx, q)
		if err != nil {
			t.Fatalf("%+v: local Rank: %v", q, err)
		}
		if !sameBits(got.SiteRank, want.SiteRank) || got.SiteIterations != want.SiteIterations {
			t.Errorf("Damping %g Tol %g personalized %v: fleet πS is %g from the LocalEngine's in %d sweeps vs %d, want its bits",
				q.Damping, q.Tol, q.SitePersonalization != nil, got.SiteRank.L1Diff(want.SiteRank), got.SiteIterations, want.SiteIterations)
		}
		if got.Dist.Messages == 0 {
			t.Errorf("Damping %g Tol %g: the query sent no message, want a fleet run of its own", q.Damping, q.Tol)
		}
	}
}

// TestDistEngineThreeLayer sends a three-layer query with parameters of
// its own — a run of its own, not composed from the fill — to a
// DistEngine on each of distModes' configs. The fleet solves the document
// layer; the upper layers are weighed from the SiteGraph as on a
// LocalEngine, so DocRank, DomainRank and SiteEntry match the
// LocalEngine's. ThreeLayer with a SitePersonalization is still refused.
func TestDistEngineThreeLayer(t *testing.T) {
	web := engineWeb()
	ctx := context.Background()
	local, err := NewLocalEngine(web.Graph, EngineOptions{})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	q := Query{ThreeLayer: true, Damping: 0.8}
	ref, err := local.Rank(ctx, q)
	if err != nil {
		t.Fatalf("local three-layer Rank: %v", err)
	}
	cl, err := StartCluster(2)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()
	for _, m := range distModes {
		t.Run(m.name, func(t *testing.T) {
			eng, err := NewDistEngine(cl, web.Graph, m.cfg)
			if err != nil {
				t.Fatalf("NewDistEngine: %v", err)
			}
			res, err := eng.Rank(ctx, q)
			if err != nil {
				t.Fatalf("three-layer Rank: %v", err)
			}
			if res.Dist.Messages == 0 || res.Dist.LocalRanksReused != 0 {
				t.Errorf("the query sent %d messages and reused %d local ranks, want a run of its own", res.Dist.Messages, res.Dist.LocalRanksReused)
			}
			for _, v := range []struct {
				name      string
				got, want Vector
			}{
				{"DocRank", res.DocRank, ref.DocRank},
				{"SiteRank", res.SiteRank, ref.SiteRank},
				{"DomainRank", res.DomainRank, ref.DomainRank},
				{"SiteEntry", res.SiteEntry, ref.SiteEntry},
			} {
				if len(v.got) != len(v.want) {
					t.Fatalf("%s has %d entries, want %d", v.name, len(v.got), len(v.want))
				}
				if d := v.got.L1Diff(v.want); d >= 1e-9 {
					t.Errorf("‖%s − LocalEngine's‖₁ = %g, want < 1e-9", v.name, d)
				}
			}
			if _, err := eng.Rank(ctx, Query{ThreeLayer: true, SitePersonalization: matrix.Uniform(web.Graph.NumSites())}); !errors.Is(err, ErrUnsupportedQuery) {
				t.Errorf("ThreeLayer + SitePersonalization: err = %v, want ErrUnsupportedQuery", err)
			}
		})
	}
}

// TestDistEnginePinnedRankKeepsOldWarmState: the fill lives on the
// snapshot, so a Rank that pinned its snapshot before an Update published
// finishes on the old graph's locals and πS — bit-identical to the
// answers served before the swap, and without a message.
func TestDistEnginePinnedRankKeepsOldWarmState(t *testing.T) {
	web := churnTestWeb()
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
	before := warmRanks(t, eng, Query{})[1]
	pinned := eng.snap.Load() // what a Rank in flight across the Update holds
	err = eng.Update(ctx, GraphDelta{
		Apply: func(dg *DocGraph) error { editSite(t, dg, 4); return nil },
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
	if late.Dist.LocalRanksReused != web.Graph.NumSites() || late.Dist.Messages != 0 {
		t.Errorf("the pinned Rank reused %d local ranks in %d messages, want all %d of its own snapshot's in none",
			late.Dist.LocalRanksReused, late.Dist.Messages, web.Graph.NumSites())
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
// process-wide (coordinator, wire and the in-process workers): a warm
// default query is composed from the snapshot's solutions and sends
// nothing, so it allocates the caller's DocRank and a fixed-size Result
// (its πS copy, iteration counts and stats). Measured: 107 584 bytes on
// this web at GOMAXPROCS 1, 2 and 4 — the 8·NumDocs DocRank rounded up to
// whole 8 KiB pages (106 496) and 1.1 KB beside it. The budget is
// 8·NumDocs + 12 KiB: a page of rounding and 4 KiB. (It was 1.5 × 8·NumDocs
// + 64 KiB, 127 842 bytes measured, while every warm Rank was a
// coordinator run.)
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
	eng, err := NewDistEngine(cl, web.Graph, DistConfig{})
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
	limit := 8*float64(web.Graph.NumDocs()) + 12<<10
	if perRank > limit {
		t.Errorf("a warm Rank allocates %.0f bytes over %d documents, want <= %.0f", perRank, web.Graph.NumDocs(), limit)
	}
	t.Logf("warm Rank: %.0f bytes allocated, %d documents (8·NumDocs = %d)", perRank, web.Graph.NumDocs(), 8*web.Graph.NumDocs())
}
