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
	engineLegs(t, "", opts, test)
}

// engineLegs is bothEngines with suffix appended to the subtests' names.
func engineLegs(t *testing.T, suffix string, opts EngineOptions, test func(t *testing.T, eng servedEngine)) {
	t.Helper()
	t.Run("local"+suffix, func(t *testing.T) {
		eng, err := NewLocalEngine(churnTestWeb().Graph, opts)
		if err != nil {
			t.Fatalf("NewLocalEngine: %v", err)
		}
		test(t, eng)
	})
	t.Run("dist"+suffix, func(t *testing.T) {
		cl, err := StartCluster(2)
		if err != nil {
			t.Fatalf("StartCluster: %v", err)
		}
		defer cl.Close()
		eng, err := NewDistEngine(cl, churnTestWeb().Graph, DistConfig{
			MaxInFlight:    opts.MaxInFlight,
			TenantQuota:    opts.TenantQuota,
			RejectOverload: opts.RejectOverload,
			Coalesce:       opts.Coalesce,
			CoalesceTol:    opts.CoalesceTol,
		})
		if err != nil {
			t.Fatalf("NewDistEngine: %v", err)
		}
		test(t, eng)
	})
}

// everyEngine runs test as bothEngines does, and on a LocalEngine whose
// snapshot already holds its top-k index, built by a TopK query served
// before the test starts: until a TopK query reads it a snapshot has
// none, and an Update patches the one its predecessor had. Each runs
// twice, as opts says and coalescing (the "-coalesce" legs), since a
// query that coalesces takes its own way through the front.
func everyEngine(t *testing.T, opts EngineOptions, test func(t *testing.T, eng servedEngine)) {
	t.Helper()
	for _, suffix := range []string{"", "-coalesce"} {
		opts := opts
		opts.Coalesce = opts.Coalesce || suffix != ""
		engineLegs(t, suffix, opts, test)
		t.Run("local-topk"+suffix, func(t *testing.T) {
			eng, err := NewLocalEngine(churnTestWeb().Graph, opts)
			if err != nil {
				t.Fatalf("NewLocalEngine: %v", err)
			}
			if _, err := eng.Rank(context.Background(), Query{TopK: 5}); err != nil {
				t.Fatalf("index-building Rank: %v", err)
			}
			if eng.snap.Load().sol.Load().index.Load() == nil {
				t.Fatal("a TopK query built no index")
			}
			test(t, eng)
		})
	}
}

// everyShape is one query of every shape the engines serve: the mixed
// workload, a bare TopK query and one with a damping of its own.
func everyShape(dg *DocGraph) []Query {
	return append(mixedQueries(dg), Query{TopK: 5}, Query{TopK: 5, Damping: 0.8})
}

// refusesStale checks that every query shape fails with ErrGraphMutated
// on eng, whose graph mutated behind its back, and that none panics. A
// DistEngine refuses document-layer personalization before anything else.
func refusesStale(t *testing.T, eng servedEngine, shapes []Query) {
	t.Helper()
	_, dist := eng.(*DistEngine)
	for qi, q := range shapes {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("query %d after an external mutation panicked: %v", qi, p)
				}
			}()
			want := ErrGraphMutated
			if dist && q.DocPersonalization != nil {
				want = ErrUnsupportedQuery
			}
			if _, err := eng.Rank(context.Background(), q); !errors.Is(err, want) {
				t.Errorf("query %d after an external mutation: err = %v, want %v", qi, err, want)
			}
		}()
	}
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
// churn path: rankings served after Engine.Update agree with a cold solve
// over the mutated graph — one-shot LayeredDocRank, from uniform — to
// < 1e-9, while the warm query does measurably fewer power iterations;
// and a default-parameter query, composed from the Update's refreshed
// solutions, agrees with a new engine's to the same bound. (A new
// engine's Tol 1e-11 query is no cold reference: it starts from the
// solutions its construction solved.)
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
	cold, err := LayeredDocRank(eng.DocGraph(), WebConfig{Tol: q.Tol})
	if err != nil {
		t.Fatalf("cold LayeredDocRank: %v", err)
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

	composed, err := eng.Rank(ctx, Query{})
	if err != nil {
		t.Fatalf("default-parameter Rank after Update: %v", err)
	}
	if d := composed.DocRank.L1Diff(coldRank(t, eng, Query{}).DocRank); d >= 1e-9 {
		t.Errorf("‖composed − new engine's‖₁ = %g, want < 1e-9", d)
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
// mutation not delivered through Update — new links and a new document —
// turns every query shape into a documented ErrGraphMutated (instead of
// silently stale rankings, or a compose indexing past a grown site), and
// so does every later Update, since nothing recorded what changed — on
// every engine.
func TestEngineMutationWithoutUpdateFails(t *testing.T) {
	ctx := context.Background()
	const site = SiteID(2)
	everyEngine(t, EngineOptions{}, func(t *testing.T, eng servedEngine) {
		shapes := everyShape(eng.DocGraph())
		for _, q := range shapes {
			if _, err := eng.Rank(ctx, q); err != nil && !errors.Is(err, ErrUnsupportedQuery) {
				t.Fatalf("Rank before the mutation: %v", err)
			}
		}

		// Behind the engine's back: links, and a document.
		dg := eng.DocGraph()
		editSite(t, dg, site)
		docs := dg.Sites[site].Docs
		d := dg.AddDoc(fmt.Sprintf("http://%s/added", dg.Sites[site].Name), site)
		dg.G.AddLink(int(docs[0]), int(d))
		dg.G.AddLink(int(d), int(docs[1]))
		refusesStale(t, eng, shapes)

		noop := GraphDelta{Apply: func(*DocGraph) error { return nil }}
		if err := eng.Update(ctx, noop); !errors.Is(err, ErrGraphMutated) {
			t.Fatalf("Update after the mutation: err = %v, want ErrGraphMutated", err)
		}
		refusesStale(t, eng, shapes)
	})
}

// TestEngineUpdateDerivesChangedSites: the sites an Update rebuilds are
// derived from the clone its Apply wrote, not taken from the deprecated
// ChangedSites. An Apply that edits site 4 while ChangedSites lists only
// site 5 is served as a cold engine over the same graph serves it, on
// every engine. (When the list was trusted, the next answer kept site
// 4's old chain and SiteGraph row: 1.6e-3 off in L1.)
func TestEngineUpdateDerivesChangedSites(t *testing.T) {
	ctx := context.Background()
	q := Query{Tol: 1e-11}
	everyEngine(t, EngineOptions{}, func(t *testing.T, eng servedEngine) {
		if _, err := eng.Rank(ctx, Query{}); err != nil {
			t.Fatalf("pre-churn Rank: %v", err)
		}
		err := eng.Update(ctx, GraphDelta{
			ChangedSites: []SiteID{5},
			Apply: func(dg *DocGraph) error {
				editSite(t, dg, 4)
				return nil
			},
		})
		if err != nil {
			t.Fatalf("Update: %v", err)
		}
		got, err := eng.Rank(ctx, q)
		if err != nil {
			t.Fatalf("Rank after Update: %v", err)
		}
		if d := got.DocRank.L1Diff(coldRank(t, eng, q).DocRank); d >= 1e-9 {
			t.Errorf("‖served − cold‖₁ = %g, want < 1e-9 (site 4's edit was not rebuilt)", d)
		}
	})
}

// TestEngineUpdateApplyError: an Apply that mutates the working clone and
// then fails is a no-op on either engine — the error surfaces wrapped,
// the serving graph and the ranking are what they were, and the same
// delta reissued with a working Apply lands.
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

		// An Apply that succeeds but leaves a graph Validate refuses fails
		// the Update the same way.
		if err := eng.Update(ctx, GraphDelta{Apply: func(dg *DocGraph) error { dg.G = nil; return nil }}); err == nil || eng.DocGraph() != dg {
			t.Fatalf("Update leaving no digraph: err = %v, serving graph swapped: %v", err, eng.DocGraph() != dg)
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
// leaves the engine exactly as before — no ErrGraphMutated and the same
// rankings. Reissuing the delta then succeeds
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
	// the mutation must hit the graph currently served — and so is every
	// later Update.
	editSite(t, eng.DocGraph(), 1)
	if _, err := eng.Rank(ctx, Query{}); !errors.Is(err, ErrGraphMutated) {
		t.Errorf("Rank after external mutation: err = %v, want ErrGraphMutated", err)
	}
	if err := eng.Update(ctx, GraphDelta{Apply: func(*DocGraph) error { return nil }}); !errors.Is(err, ErrGraphMutated) {
		t.Errorf("Update after external mutation: err = %v, want ErrGraphMutated", err)
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
// documents — to an old site, as a new site, and both at once — is
// served like a cold engine over the
// same graph on either engine: each site's chain is extracted through the
// site runs the clone extended over the new documents, a site appended to
// out of DocID order no longer one run. The graphs of the snapshots left
// behind keep their size and their LocalOf.
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
		}{
			{"old site", func(dg *DocGraph) []SiteID { return []SiteID{4} }},
			{"new site", func(dg *DocGraph) []SiteID { return []SiteID{SiteID(len(dg.Sites))} }},
			{"both", func(dg *DocGraph) []SiteID { return []SiteID{2, SiteID(len(dg.Sites)), 4} }},
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
			left = append(left, generation{served, served.NumDocs()})
			if err := eng.Update(ctx, GraphDelta{Apply: grow}); err != nil {
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
