package lmmrank

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"lmmrank/internal/graph"
)

// churnTestWeb is a small campus web for update tests.
func churnTestWeb() *CampusWeb {
	return GenerateCampusWeb(CampusWebConfig{
		Seed:                7,
		Sites:               18,
		MeanSitePages:       12,
		DynamicClusterPages: 50,
		DocClusterPages:     50,
	})
}

// editSite adds a couple of intra-site links to site s — the canonical
// 1-site churn event.
func editSite(t *testing.T, dg *DocGraph, s SiteID) {
	t.Helper()
	docs := dg.Sites[s].Docs
	if len(docs) < 3 {
		t.Fatalf("site %d too small for the edit", s)
	}
	dg.G.AddLink(int(docs[0]), int(docs[2]))
	dg.G.AddLink(int(docs[2]), int(docs[1]))
}

// servedEngine is what the serving front gives both engines beyond the
// Engine interface.
type servedEngine interface {
	Engine
	DocGraph() *DocGraph
	ServingStats() ServingStats
}

// bothEngines runs test against each constructor — a LocalEngine, and a
// DistEngine on a 2-worker cluster — over a fresh churnTestWeb, with the
// serving knobs of opts (the ones EngineOptions and DistConfig both
// spell). What is tested this way is the front, which the engines share.
func bothEngines(t *testing.T, opts EngineOptions, test func(t *testing.T, eng servedEngine)) {
	t.Helper()
	t.Run("local", func(t *testing.T) {
		eng, err := NewLocalEngine(churnTestWeb().Graph, opts)
		if err != nil {
			t.Fatalf("NewLocalEngine: %v", err)
		}
		test(t, eng)
	})
	t.Run("dist", func(t *testing.T) {
		cl, err := StartCluster(2)
		if err != nil {
			t.Fatalf("StartCluster: %v", err)
		}
		defer cl.Close()
		eng, err := NewDistEngine(cl, churnTestWeb().Graph, DistConfig{
			MaxInFlight:    opts.MaxInFlight,
			TenantQuota:    opts.TenantQuota,
			RejectOverload: opts.RejectOverload,
		})
		if err != nil {
			t.Fatalf("NewDistEngine: %v", err)
		}
		test(t, eng)
	})
}

// coldRank is the reference a served answer is compared with: a cold
// LocalEngine over the graph eng serves now.
func coldRank(t *testing.T, eng servedEngine, q Query) *Result {
	t.Helper()
	cold, err := NewLocalEngine(eng.DocGraph(), EngineOptions{})
	if err != nil {
		t.Fatalf("cold NewLocalEngine: %v", err)
	}
	res, err := cold.Rank(context.Background(), q)
	if err != nil {
		t.Fatalf("cold Rank: %v", err)
	}
	return res
}

// TestEngineUpdateWarmMatchesColdRebuild is the acceptance pin of the
// churn path: rankings served after Engine.Update agree with a cold
// NewLocalEngine over the mutated graph to < 1e-9, while the warm query
// does measurably fewer power iterations.
func TestEngineUpdateWarmMatchesColdRebuild(t *testing.T) {
	web := churnTestWeb()
	dg := web.Graph
	ctx := context.Background()
	q := Query{Tol: 1e-11}

	eng, err := NewLocalEngine(dg, EngineOptions{})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	if _, err := eng.Rank(ctx, q); err != nil {
		t.Fatalf("pre-churn Rank: %v", err)
	}

	const site = SiteID(4)
	err = eng.Update(ctx, GraphDelta{
		ChangedSites: []SiteID{site},
		Apply: func(dg *DocGraph) error {
			editSite(t, dg, site)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}

	warm, err := eng.Rank(ctx, q)
	if err != nil {
		t.Fatalf("post-update Rank: %v", err)
	}
	// The engine now serves an evolved copy-on-write clone; the caller's
	// original graph is untouched. Compare against a cold engine over the
	// graph actually served.
	if eng.DocGraph() == dg {
		t.Fatal("Apply-path Update did not evolve the serving graph")
	}
	coldEng, err := NewLocalEngine(eng.DocGraph(), EngineOptions{})
	if err != nil {
		t.Fatalf("cold NewLocalEngine: %v", err)
	}
	cold, err := coldEng.Rank(ctx, q)
	if err != nil {
		t.Fatalf("cold Rank: %v", err)
	}
	if d := warm.DocRank.L1Diff(cold.DocRank); d >= 1e-9 {
		t.Errorf("‖warm − cold‖₁ = %g, want < 1e-9", d)
	}
	if d := warm.SiteRank.L1Diff(cold.SiteRank); d >= 1e-9 {
		t.Errorf("‖warm − cold‖₁ on SiteRank = %g, want < 1e-9", d)
	}
	if s := warm.DocRank.Sum(); math.Abs(s-1) > 1e-9 {
		t.Errorf("warm DocRank sums to %g", s)
	}

	// The warm query starts from the update's refreshed solution, the
	// cold one from uniform: strictly less power-method work.
	warmIters, coldIters := warm.SiteIterations, cold.SiteIterations
	for i := range warm.LocalIterations {
		warmIters += warm.LocalIterations[i]
		coldIters += cold.LocalIterations[i]
	}
	if warmIters >= coldIters {
		t.Errorf("warm query did %d iterations, cold %d — no warm-start win", warmIters, coldIters)
	}

	// The other query shapes keep working against the updated core.
	if _, err := eng.Rank(ctx, Query{ThreeLayer: true}); err != nil {
		t.Errorf("three-layer query after Update: %v", err)
	}
	if res, err := eng.Rank(ctx, Query{TopK: 5}); err != nil || len(res.Top) != 5 {
		t.Errorf("top-k query after Update: res=%v err=%v", res, err)
	}
}

// TestEngineMutationWithoutUpdateFails pins the footgun fix: a graph
// mutation not delivered through Update turns queries into a documented
// ErrGraphMutated (instead of silently stale rankings), and a follow-up
// Update listing the changed site restores service — on either engine.
func TestEngineMutationWithoutUpdateFails(t *testing.T) {
	ctx := context.Background()
	bothEngines(t, EngineOptions{}, func(t *testing.T, eng servedEngine) {
		if _, err := eng.Rank(ctx, Query{}); err != nil {
			t.Fatalf("pre-churn Rank: %v", err)
		}

		const site = SiteID(2)
		editSite(t, eng.DocGraph(), site) // behind the engine's back

		if _, err := eng.Rank(ctx, Query{}); !errors.Is(err, ErrGraphMutated) {
			t.Fatalf("Rank after external mutation: err = %v, want ErrGraphMutated", err)
		}
		// Update with the mutation already applied (nil Apply) recovers.
		if err := eng.Update(ctx, GraphDelta{ChangedSites: []SiteID{site}}); err != nil {
			t.Fatalf("recovery Update: %v", err)
		}
		got, err := eng.Rank(ctx, Query{Tol: 1e-11})
		if err != nil {
			t.Fatalf("Rank after recovery Update: %v", err)
		}
		if d := got.DocRank.L1Diff(coldRank(t, eng, Query{Tol: 1e-11}).DocRank); d >= 1e-9 {
			t.Errorf("‖recovered − cold‖₁ = %g, want < 1e-9", d)
		}
	})
}

// TestEngineUpdateApplyError: an Apply that mutates the working clone and
// then fails is a no-op on either engine — the error surfaces wrapped,
// the serving graph and the ranking are what they were, nothing is left
// marked dirty, and the same delta reissued with a working Apply lands.
func TestEngineUpdateApplyError(t *testing.T) {
	ctx := context.Background()
	bothEngines(t, EngineOptions{}, func(t *testing.T, eng servedEngine) {
		dg := eng.DocGraph()
		pre, err := eng.Rank(ctx, Query{Tol: 1e-11})
		if err != nil {
			t.Fatalf("pre-churn Rank: %v", err)
		}
		boom := errors.New("boom")
		delta := GraphDelta{
			ChangedSites: []SiteID{3},
			Apply: func(dg *DocGraph) error {
				editSite(t, dg, 3)
				return boom
			},
		}
		if err := eng.Update(ctx, delta); !errors.Is(err, boom) {
			t.Fatalf("Update with failing Apply: err = %v, want boom", err)
		}
		if eng.DocGraph() != dg {
			t.Fatal("failed Update swapped the serving graph")
		}
		post, err := eng.Rank(ctx, Query{Tol: 1e-11})
		if err != nil {
			t.Fatalf("Rank after failed Apply: %v", err)
		}
		if d := post.DocRank.L1Diff(pre.DocRank); d >= 1e-9 {
			t.Errorf("failed Update moved the ranking by %g (the failed edit leaked)", d)
		}

		delta.Apply = func(dg *DocGraph) error {
			editSite(t, dg, 3)
			return nil
		}
		if err := eng.Update(ctx, delta); err != nil {
			t.Fatalf("reissued Update: %v", err)
		}
		got, err := eng.Rank(ctx, Query{Tol: 1e-11})
		if err != nil {
			t.Fatalf("Rank after reissued Update: %v", err)
		}
		if d := got.DocRank.L1Diff(coldRank(t, eng, Query{Tol: 1e-11}).DocRank); d >= 1e-9 {
			t.Errorf("‖reissued − cold‖₁ = %g, want < 1e-9", d)
		}
	})
}

// TestEngineFailedApplyUpdateIsNoOp pins the new transactional Apply
// path: an Update that fails after Apply mutated the *clone* (here: the
// context is cancelled during the refresh solve) discards the clone and
// leaves the engine exactly as before — no ErrGraphMutated, the same
// rankings, and nothing marked dirty. Reissuing the delta then succeeds
// and matches a cold engine over the evolved serving graph.
func TestEngineFailedApplyUpdateIsNoOp(t *testing.T) {
	web := churnTestWeb()
	dg := web.Graph
	ctx := context.Background()
	eng, err := NewLocalEngine(dg, EngineOptions{})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	pre, err := eng.Rank(ctx, Query{Tol: 1e-11})
	if err != nil {
		t.Fatalf("pre-churn Rank: %v", err)
	}

	// Update #1 mutates the working clone and then fails: Apply cancels
	// the update context, so the refresh solve aborts after the clone
	// changed. Under drain-and-swap semantics this left the engine
	// poisoned (ErrGraphMutated until recovery); with COW it is a no-op.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	delta := GraphDelta{
		ChangedSites: []SiteID{3},
		Apply: func(dg *DocGraph) error {
			editSite(t, dg, 3)
			cancel()
			return nil
		},
	}
	if err := eng.Update(cctx, delta); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Update: err = %v, want context.Canceled", err)
	}
	if eng.DocGraph() != dg {
		t.Fatal("failed Update swapped the serving graph")
	}
	post, err := eng.Rank(ctx, Query{Tol: 1e-11})
	if err != nil {
		t.Fatalf("Rank after failed Update: %v", err)
	}
	if d := post.DocRank.L1Diff(pre.DocRank); d != 0 {
		t.Errorf("failed Update moved the ranking by %g, want bitwise no-op", d)
	}

	// Reissuing the same delta with a live context succeeds outright.
	delta.Apply = func(dg *DocGraph) error {
		editSite(t, dg, 3)
		return nil
	}
	if err := eng.Update(ctx, delta); err != nil {
		t.Fatalf("reissued Update: %v", err)
	}
	got, err := eng.Rank(ctx, Query{Tol: 1e-11})
	if err != nil {
		t.Fatalf("Rank after reissued Update: %v", err)
	}
	if d := got.DocRank.L1Diff(coldRank(t, eng, Query{Tol: 1e-11}).DocRank); d >= 1e-9 {
		t.Errorf("‖reissued − cold‖₁ = %g, want < 1e-9", d)
	}
}

// TestEngineFailedNilApplyUpdateKeepsSitesDirty pins the one remaining
// dirty-tracking path: on the nil-Apply path the serving graph is
// already mutated when Update is called, so a failed Update must keep
// the delta's sites recorded, and the next successful Update — listing
// only its *own* changed sites — must rebuild the earlier ones too.
// Forgetting them would bless the pre-edit subgraphs into the new core
// and serve silently stale rankings (distributedly: ship the stale shard).
func TestEngineFailedNilApplyUpdateKeepsSitesDirty(t *testing.T) {
	ctx := context.Background()
	bothEngines(t, EngineOptions{}, func(t *testing.T, eng servedEngine) {
		if _, err := eng.Rank(ctx, Query{}); err != nil {
			t.Fatalf("pre-churn Rank: %v", err)
		}

		// The caller mutates the serving graph directly, then its recovery
		// Update fails (already-cancelled context): site 3 must stay
		// recorded as dirty.
		editSite(t, eng.DocGraph(), 3)
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		err := eng.Update(cctx, GraphDelta{ChangedSites: []SiteID{3}})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Update: err = %v, want context.Canceled", err)
		}
		if _, err := eng.Rank(ctx, Query{}); !errors.Is(err, ErrGraphMutated) {
			t.Fatalf("Rank after failed Update: err = %v, want ErrGraphMutated", err)
		}

		// Update #2 lists only its own site; site 3 must be rebuilt anyway.
		err = eng.Update(ctx, GraphDelta{
			ChangedSites: []SiteID{5},
			Apply: func(dg *DocGraph) error {
				editSite(t, dg, 5)
				return nil
			},
		})
		if err != nil {
			t.Fatalf("recovery Update: %v", err)
		}
		got, err := eng.Rank(ctx, Query{Tol: 1e-11})
		if err != nil {
			t.Fatalf("Rank after recovery: %v", err)
		}
		if d := got.DocRank.L1Diff(coldRank(t, eng, Query{Tol: 1e-11}).DocRank); d >= 1e-9 {
			t.Errorf("‖recovered − cold‖₁ = %g, want < 1e-9 (site 3's edit was dropped?)", d)
		}
	})
}

// TestEngineUpdateConcurrentWithRank hammers Update against concurrent
// Rank traffic: queries must never error (beyond none expected) or
// observe a half-swapped core. Run under -race via make race.
func TestEngineUpdateConcurrentWithRank(t *testing.T) {
	web := churnTestWeb()
	dg := web.Graph
	ctx := context.Background()
	eng, err := NewLocalEngine(dg, EngineOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}

	const queriers = 4
	stop := make(chan struct{})
	errCh := make(chan error, queriers)
	var wg sync.WaitGroup
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := eng.Rank(ctx, Query{})
				if err != nil {
					errCh <- err
					return
				}
				if s := res.DocRank.Sum(); math.Abs(s-1) > 1e-6 {
					errCh <- fmt.Errorf("DocRank sums to %g", s)
					return
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		site := SiteID(i + 1)
		err := eng.Update(ctx, GraphDelta{
			ChangedSites: []SiteID{site},
			Apply: func(dg *DocGraph) error {
				docs := dg.Sites[site].Docs
				if len(docs) >= 2 {
					dg.G.AddLink(int(docs[0]), int(docs[1]))
				}
				return nil
			},
		})
		if err != nil {
			t.Fatalf("concurrent Update %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("concurrent Rank: %v", err)
	default:
	}
}

// TestDistEngineUpdate drives the distributed churn path end to end
// through the Engine API: after Update, the next query re-ships only
// the changed shard (CacheHits > 0, ShardsReshipped small) and the
// ranking matches a LocalEngine over the same mutated graph to < 1e-9.
func TestDistEngineUpdate(t *testing.T) {
	web := churnTestWeb()
	dg := web.Graph
	ns := dg.NumSites()
	ctx := context.Background()

	cl, err := StartCluster(3)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()
	eng, err := NewDistEngine(cl, dg, DistConfig{})
	if err != nil {
		t.Fatalf("NewDistEngine: %v", err)
	}
	cold, err := eng.Rank(ctx, Query{})
	if err != nil {
		t.Fatalf("cold Rank: %v", err)
	}
	if cold.Dist.ShardsReshipped != ns {
		t.Fatalf("cold run reshipped %d shards, want %d", cold.Dist.ShardsReshipped, ns)
	}

	const site = SiteID(6)
	err = eng.Update(ctx, GraphDelta{
		ChangedSites: []SiteID{site},
		Apply: func(dg *DocGraph) error {
			editSite(t, dg, site)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}

	warm, err := eng.Rank(ctx, Query{})
	if err != nil {
		t.Fatalf("post-update Rank: %v", err)
	}
	if warm.Dist.CacheHits != ns-1 || warm.Dist.ShardsReshipped != 1 {
		t.Errorf("delta query reused %d / reshipped %d shards, want %d / 1",
			warm.Dist.CacheHits, warm.Dist.ShardsReshipped, ns-1)
	}
	if warm.Dist.BytesSent*4 > cold.Dist.BytesSent {
		t.Errorf("delta query sent %d bytes vs %d cold — not delta-shaped",
			warm.Dist.BytesSent, cold.Dist.BytesSent)
	}

	// The engine serves an evolved COW clone after the Apply-path
	// Update; compare against a LocalEngine over that same graph.
	local, err := NewLocalEngine(eng.DocGraph(), EngineOptions{})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	ref, err := local.Rank(ctx, Query{})
	if err != nil {
		t.Fatalf("local Rank: %v", err)
	}
	if d := warm.DocRank.L1Diff(ref.DocRank); d >= 1e-9 {
		t.Errorf("‖dist − local‖₁ after Update = %g, want < 1e-9", d)
	}

	// Mutating behind the engine's back is refused distributedly too —
	// the mutation must hit the graph currently served.
	editSite(t, eng.DocGraph(), 1)
	if _, err := eng.Rank(ctx, Query{}); !errors.Is(err, ErrGraphMutated) {
		t.Errorf("Rank after external mutation: err = %v, want ErrGraphMutated", err)
	}
	if err := eng.Update(ctx, GraphDelta{ChangedSites: []SiteID{1}}); err != nil {
		t.Fatalf("recovery Update: %v", err)
	}
	if _, err := eng.Rank(ctx, Query{}); err != nil {
		t.Errorf("Rank after recovery Update: %v", err)
	}
}

// growSite appends n documents to site s of dg — a new site when s is one
// past the last — the append-only way GraphDelta.Apply allows: each new
// page links to the site's first page and back.
func growSite(dg *DocGraph, s SiteID, n int) {
	if int(s) == len(dg.Sites) {
		dg.Sites = append(dg.Sites, graph.Site{Name: fmt.Sprintf("grown%d.example", s)})
	}
	for ; n > 0; n-- {
		d := dg.AddDoc(fmt.Sprintf("http://%s/grown%d", dg.Sites[s].Name, dg.NumDocs()), s)
		dg.G.AddLink(int(d), int(dg.Sites[s].Docs[0]))
		dg.G.AddLink(int(dg.Sites[s].Docs[0]), int(d))
	}
}

// TestEngineUpdateAppendsDocuments: an edit history that appends
// documents — to an old site, as a new site, both at once, and once more
// in place on the nil-Apply path — is served like a cold engine over the
// same graph on either engine: each site's chain is extracted through the
// local column the clone extended over the new documents. The graphs of
// the snapshots left behind keep their size and their column.
func TestEngineUpdateAppendsDocuments(t *testing.T) {
	bothEngines(t, EngineOptions{}, func(t *testing.T, eng servedEngine) {
		ctx := context.Background()
		q := Query{Tol: 1e-11}
		checkColumn := func(what string, dg *DocGraph, docs int) {
			t.Helper()
			if dg.NumDocs() != docs {
				t.Fatalf("%s: %d documents, want %d", what, dg.NumDocs(), docs)
			}
			for s, site := range dg.Sites {
				for i, d := range site.Docs {
					if got := dg.LocalOf(d); got != i {
						t.Fatalf("%s: LocalOf(%d) = %d, want %d (site %d)", what, d, got, i, s)
					}
				}
			}
		}
		type generation struct {
			dg   *DocGraph
			docs int
		}
		var left []generation
		steps := []struct {
			name  string
			sites func(dg *DocGraph) []SiteID
			apply bool
		}{
			{"old site", func(dg *DocGraph) []SiteID { return []SiteID{4} }, true},
			{"new site", func(dg *DocGraph) []SiteID { return []SiteID{SiteID(len(dg.Sites))} }, true},
			{"both", func(dg *DocGraph) []SiteID { return []SiteID{2, SiteID(len(dg.Sites)), 4} }, true},
			{"in place", func(dg *DocGraph) []SiteID { return []SiteID{3} }, false},
		}
		for _, step := range steps {
			served := eng.DocGraph()
			sites := step.sites(served)
			grow := func(dg *DocGraph) error {
				for i, s := range sites {
					growSite(dg, s, 2+i)
				}
				return nil
			}
			delta := GraphDelta{ChangedSites: sites, Apply: grow}
			if step.apply {
				left = append(left, generation{served, served.NumDocs()})
			} else {
				_ = grow(served) // never fails
				delta.Apply = nil
			}
			if err := eng.Update(ctx, delta); err != nil {
				t.Fatalf("%s: Update: %v", step.name, err)
			}
			got, err := eng.Rank(ctx, q)
			if err != nil {
				t.Fatalf("%s: Rank: %v", step.name, err)
			}
			want := coldRank(t, eng, q)
			if d := got.DocRank.L1Diff(want.DocRank); len(got.DocRank) != eng.DocGraph().NumDocs() || d >= 1e-9 {
				t.Fatalf("%s: %d scores, ‖served − cold‖₁ = %g", step.name, len(got.DocRank), d)
			}
			checkColumn(step.name, eng.DocGraph(), eng.DocGraph().NumDocs())
			for i, g := range left {
				checkColumn(fmt.Sprintf("%s: generation %d", step.name, i), g.dg, g.docs)
			}
		}
	})
}
