package lmm

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"lmmrank/internal/graph"
	"lmmrank/internal/matrix"
)

// mutateSite adds a couple of intra-site links to site s and returns s.
func mutateSite(t *testing.T, dg *graph.DocGraph, s graph.SiteID) {
	t.Helper()
	docs := dg.Sites[s].Docs
	if len(docs) < 3 {
		t.Skipf("site %d too small in this seed", s)
	}
	dg.G.AddLink(int(docs[0]), int(docs[2]))
	dg.G.AddLink(int(docs[2]), int(docs[1]))
}

// TestRankerStaleAfterMutation pins the mutate-after-precompute footgun:
// a graph mutation not routed through Rebuild turns every query path of
// the old Ranker into a documented ErrGraphMutated instead of a silently
// stale ranking.
func TestRankerStaleAfterMutation(t *testing.T) {
	dg := randomWeb(rand.New(rand.NewSource(91)), 6, 60)
	rk, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	if _, err := rk.Rank(WebConfig{}); err != nil {
		t.Fatalf("pre-mutation Rank: %v", err)
	}
	if rk.Stale() {
		t.Fatal("fresh Ranker reports stale")
	}
	mutateSite(t, dg, 1)
	if !rk.Stale() {
		t.Fatal("mutated graph not detected as stale")
	}
	if _, err := rk.Rank(WebConfig{}); !errors.Is(err, ErrGraphMutated) {
		t.Errorf("Rank after mutation: err = %v, want ErrGraphMutated", err)
	}
	if _, _, err := rk.RankSites(WebConfig{}); !errors.Is(err, ErrGraphMutated) {
		t.Errorf("RankSites after mutation: err = %v, want ErrGraphMutated", err)
	}
	if _, err := rk.Rank3(nil, WebConfig{}); !errors.Is(err, ErrGraphMutated) {
		t.Errorf("Rank3 after mutation: err = %v, want ErrGraphMutated", err)
	}
	// A Share()d sibling sees the same core, hence the same verdict.
	if _, err := rk.Share().Rank(WebConfig{}); !errors.Is(err, ErrGraphMutated) {
		t.Errorf("shared Ranker after mutation: err = %v, want ErrGraphMutated", err)
	}
}

// TestRebuildMatchesColdRanker is the correctness pin of the structural
// churn path: after a site-local mutation, a Rebuild([changed]) Ranker
// must agree with a from-scratch NewRanker to well under 1e-9.
func TestRebuildMatchesColdRanker(t *testing.T) {
	dg := randomWeb(rand.New(rand.NewSource(92)), 8, 80)
	rk, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	if _, err := rk.Rank(WebConfig{Tol: 1e-12}); err != nil {
		t.Fatalf("initial Rank: %v", err)
	}
	mutateSite(t, dg, 3)

	warm, err := rk.Rebuild([]graph.SiteID{3})
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	cold, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatalf("cold NewRanker: %v", err)
	}
	wres, err := warm.Rank(WebConfig{Tol: 1e-12})
	if err != nil {
		t.Fatalf("warm Rank: %v", err)
	}
	cres, err := cold.Rank(WebConfig{Tol: 1e-12})
	if err != nil {
		t.Fatalf("cold Rank: %v", err)
	}
	if d := wres.DocRank.L1Diff(cres.DocRank); d >= 1e-12 {
		t.Errorf("‖rebuild − cold‖₁ = %g, want < 1e-12 (identical structure, identical arithmetic)", d)
	}
	if d := wres.SiteRank.L1Diff(cres.SiteRank); d >= 1e-12 {
		t.Errorf("‖rebuild − cold‖₁ on SiteRank = %g", d)
	}
}

// TestRebuildReusesCleanSiteStructure asserts the reuse that makes
// Rebuild cheap: unchanged sites share what a Ranker retains of a site —
// the roster index and the built chain — by pointer with the old core;
// the dirty site starts over with a fresh index and no chain yet. (No
// subgraph is retained, so there is none to share.)
func TestRebuildReusesCleanSiteStructure(t *testing.T) {
	dg := randomWeb(rand.New(rand.NewSource(93)), 8, 80)
	rk, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	rk.Prepare()
	mutateSite(t, dg, 2)
	warm, err := rk.Rebuild([]graph.SiteID{2})
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	for s := 0; s < rk.NumSites(); s++ {
		old, now := rk.core.sites[s], warm.core.sites[s]
		if old.fixed == nil && old.chain == nil {
			t.Fatalf("site %d: Prepare left no chain to share", s)
		}
		_, oldIdx := rk.LocalSubgraph(graph.SiteID(s))
		_, newIdx := warm.LocalSubgraph(graph.SiteID(s))
		if s == 2 {
			if old == now || oldIdx == newIdx || now.chain != nil {
				t.Errorf("changed site %d shares structure with the old core", s)
			}
			continue
		}
		if old != now || oldIdx != newIdx || old.chain != now.chain {
			t.Errorf("clean site %d was rebuilt", s)
		}
	}
	if warm.Stale() {
		t.Error("rebuilt Ranker reports stale")
	}
	if rk.Stale() != true {
		t.Error("old Ranker should stay stale after Rebuild")
	}
}

// TestRebuildStaleDetection covers the refusal paths: a grown roster not
// listed as changed, removed sites, and out-of-range changed IDs.
func TestRebuildStaleDetection(t *testing.T) {
	dg := randomWeb(rand.New(rand.NewSource(94)), 6, 60)
	rk, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	if _, err := rk.Rebuild([]graph.SiteID{99}); err == nil {
		t.Error("out-of-range changed site accepted")
	}

	// Rebuild the DocGraph with one extra document in site 1; because the
	// Ranker captures the graph by reference, swap the new content into
	// the same struct the Ranker holds. Not listing site 1 must fail.
	grown := rebuildWithExtraDoc(dg, 1)
	*dg = *grown
	if _, err := rk.Rebuild(nil); !errors.Is(err, ErrStaleResult) {
		t.Fatalf("grown unlisted roster: err = %v, want ErrStaleResult", err)
	}
	warm, err := rk.Rebuild([]graph.SiteID{1})
	if err != nil {
		t.Fatalf("Rebuild with grown site listed: %v", err)
	}
	wres, err := warm.Rank(WebConfig{Tol: 1e-12})
	if err != nil {
		t.Fatalf("warm Rank: %v", err)
	}
	full, err := LayeredDocRank(dg, WebConfig{Tol: 1e-12})
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	if d := wres.DocRank.L1Diff(full.DocRank); d >= 1e-12 {
		t.Errorf("‖rebuild − full‖₁ after growth = %g", d)
	}
}

// TestRebuildHandlesNewSite: appended sites are implicitly changed.
func TestRebuildHandlesNewSite(t *testing.T) {
	dg := randomWeb(rand.New(rand.NewSource(95)), 6, 60)
	rk, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	joined := rebuildWithNewSite(dg)
	*dg = *joined
	// The join gives site 0's first page a link to the newcomer — a
	// changed out-link, so site 0 is listed; the new site is not.
	warm, err := rk.Rebuild([]graph.SiteID{0})
	if err != nil {
		t.Fatalf("Rebuild after join: %v", err)
	}
	if warm.NumSites() != dg.NumSites() {
		t.Fatalf("rebuilt ranker has %d sites, graph %d", warm.NumSites(), dg.NumSites())
	}
	wres, err := warm.Rank(WebConfig{Tol: 1e-12})
	if err != nil {
		t.Fatalf("warm Rank: %v", err)
	}
	full, err := LayeredDocRank(dg, WebConfig{Tol: 1e-12})
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	if d := wres.DocRank.L1Diff(full.DocRank); d >= 1e-12 {
		t.Errorf("‖rebuild − full‖₁ after join = %g", d)
	}
}

// TestRebuildOnCOWCloneKeepsOldRankerServing pins the snapshot-serving
// contract: applying the mutation to a CloneCOW of the graph and
// rebuilding on the clone leaves the old Ranker's graph untouched, so
// the old Ranker keeps answering (no ErrGraphMutated) with its original
// ranking while the new Ranker agrees with a cold build on the clone.
func TestRebuildOnCOWCloneKeepsOldRankerServing(t *testing.T) {
	dg := randomWeb(rand.New(rand.NewSource(97)), 8, 80)
	rk, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	pre, err := rk.Rank(WebConfig{Tol: 1e-12})
	if err != nil {
		t.Fatalf("pre-clone Rank: %v", err)
	}
	preDoc := pre.DocRank.Clone()

	work := dg.CloneCOW()
	mutateSite(t, work, 3)
	warm, err := rk.RebuildOn(work, []graph.SiteID{3})
	if err != nil {
		t.Fatalf("RebuildOn: %v", err)
	}

	// The old Ranker's graph never mutated: it keeps serving, bit-stable.
	if rk.Stale() {
		t.Fatal("old Ranker stale after a COW-clone rebuild")
	}
	post, err := rk.Rank(WebConfig{Tol: 1e-12})
	if err != nil {
		t.Fatalf("old Ranker Rank after RebuildOn: %v", err)
	}
	if d := post.DocRank.L1Diff(preDoc); d != 0 {
		t.Errorf("old Ranker's ranking moved by %g under a clone rebuild", d)
	}

	// The new Ranker agrees with a cold build on the mutated clone.
	cold, err := NewRanker(work, RankerOptions{})
	if err != nil {
		t.Fatalf("cold NewRanker on clone: %v", err)
	}
	wres, err := warm.Rank(WebConfig{Tol: 1e-12})
	if err != nil {
		t.Fatalf("warm Rank: %v", err)
	}
	cres, err := cold.Rank(WebConfig{Tol: 1e-12})
	if err != nil {
		t.Fatalf("cold Rank: %v", err)
	}
	if d := wres.DocRank.L1Diff(cres.DocRank); d >= 1e-12 {
		t.Errorf("‖rebuildOn − cold‖₁ = %g, want < 1e-12", d)
	}
	// And it differs from the pre-mutation ranking (the edit was real).
	if d := wres.DocRank.L1Diff(preDoc); d == 0 {
		t.Error("mutated clone ranks identically to the original graph")
	}
}

// TestWarmStartSeedsCutIterations pins the convergence half of the churn
// path: seeding the site layer and the locals with the previous solution
// must reduce power-method work on a lightly mutated graph, and
// wrong-shape seeds must be ignored, not fatal.
func TestWarmStartSeedsCutIterations(t *testing.T) {
	dg := randomWeb(rand.New(rand.NewSource(96)), 8, 80)
	cfg := WebConfig{Tol: 1e-11}
	rk, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	prev, err := rk.Rank(cfg)
	if err != nil {
		t.Fatalf("initial Rank: %v", err)
	}
	// Snapshot the previous solution (Rank results alias scratch).
	seedSite := prev.SiteRank.Clone()
	seedLocals := make([]matrix.Vector, len(prev.LocalRanks))
	coldLocalIters := 0
	for s, lr := range prev.LocalRanks {
		seedLocals[s] = lr.Clone()
		coldLocalIters += prev.LocalIterations[s]
	}
	coldSiteIters := prev.SiteIterations

	mutateSite(t, dg, 4)
	warm, err := rk.Rebuild([]graph.SiteID{4})
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	seeded := cfg
	seeded.SiteStart = seedSite
	seeded.LocalStarts = seedLocals
	wres, err := warm.Rank(seeded)
	if err != nil {
		t.Fatalf("seeded Rank: %v", err)
	}
	warmLocalIters := 0
	for _, it := range wres.LocalIterations {
		warmLocalIters += it
	}
	if wres.SiteIterations >= coldSiteIters {
		t.Errorf("seeded SiteRank took %d iterations, cold %d", wres.SiteIterations, coldSiteIters)
	}
	if warmLocalIters >= coldLocalIters {
		t.Errorf("seeded locals took %d iterations total, cold %d", warmLocalIters, coldLocalIters)
	}

	// The seeded solution still agrees with a cold rebuild.
	cold, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatalf("cold NewRanker: %v", err)
	}
	cres, err := cold.Rank(cfg)
	if err != nil {
		t.Fatalf("cold Rank: %v", err)
	}
	if d := wres.DocRank.L1Diff(cres.DocRank); d >= 1e-9 {
		t.Errorf("‖seeded − cold‖₁ = %g, want < 1e-9", d)
	}

	// Wrong-shape seeds are hints, not inputs: ignored without error.
	bad := cfg
	bad.SiteStart = matrix.Vector{1}
	bad.LocalStarts = []matrix.Vector{{0.5, 0.5}}
	bres, err := warm.Share().Rank(bad)
	if err != nil {
		t.Fatalf("bad-shape seeds errored: %v", err)
	}
	if d := bres.DocRank.L1Diff(cres.DocRank); d >= 1e-9 {
		t.Errorf("bad-shape seeds shifted the ranking by %g", d)
	}
}

// churnWeb builds a deterministic 8-site web for the refresh tests.
func churnWeb(t *testing.T) *graph.DocGraph {
	t.Helper()
	return randomWeb(rand.New(rand.NewSource(77)), 8, 80)
}

// copyLinks replays every link of dg into b with its multiplicity, so a
// rebuilt web differs from dg only where the caller then edits it (a
// flattened duplicate link would change the out-links of sites no test
// lists as changed).
func copyLinks(b *graph.Builder, dg *graph.DocGraph) {
	dg.G.EachEdgeAll(func(from int, e graph.Edge) {
		for k := 0; k < int(e.Weight); k++ {
			b.LinkIDs(graph.DocID(from), graph.DocID(e.To))
		}
	})
}

// rebuildWithNewSite reconstructs dg with one extra site appended. The
// builder assigns new DocIDs after the existing ones, so earlier sites'
// rosters keep their shape.
func rebuildWithNewSite(dg *graph.DocGraph) *graph.DocGraph {
	b := graph.NewBuilder()
	for _, doc := range dg.Docs {
		b.AddDocInSite(doc.URL, dg.Sites[doc.Site].Name)
	}
	copyLinks(b, dg)
	n1 := b.AddDocInSite("http://newpeer.example/", "newpeer.example")
	n2 := b.AddDocInSite("http://newpeer.example/about", "newpeer.example")
	b.LinkIDs(n1, n2)
	b.LinkIDs(n2, n1)
	first := dg.Sites[0].Docs[0]
	b.LinkIDs(n1, first)
	b.LinkIDs(first, n1)
	return b.Build()
}

// rebuildWithExtraDoc reconstructs dg with one extra document in site s.
func rebuildWithExtraDoc(dg *graph.DocGraph, s graph.SiteID) *graph.DocGraph {
	b := graph.NewBuilder()
	for _, doc := range dg.Docs {
		b.AddDocInSite(doc.URL, dg.Sites[doc.Site].Name)
	}
	copyLinks(b, dg)
	extra := b.AddDocInSite(
		fmt.Sprintf("http://%s/extra-page", dg.Sites[s].Name), dg.Sites[s].Name)
	home := dg.Sites[s].Docs[0]
	b.LinkIDs(extra, home)
	b.LinkIDs(home, extra)
	return b.Build()
}

// solved builds a Ranker over dg and its first solution — the state a
// refresh starts from. The solution aliases that Ranker's scratch, which
// nothing below writes again: every refresh runs on the rebuilt Ranker.
func solved(t *testing.T, dg *graph.DocGraph, cfg WebConfig) (*Ranker, *WebResult) {
	t.Helper()
	rk, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	prev, err := rk.Rank(cfg)
	if err != nil {
		t.Fatalf("initial Rank: %v", err)
	}
	return rk, prev
}

// refreshOn is the incremental path Engine.Update runs: rebuild the
// changed sites' structure on dg, then RankRefresh seeded with prev.
func refreshOn(rk *Ranker, dg *graph.DocGraph, prev *WebResult, changed []graph.SiteID, cfg WebConfig) (*WebResult, error) {
	next, err := rk.RebuildOn(dg, changed)
	if err != nil {
		return nil, err
	}
	cfg.SiteStart, cfg.LocalStarts = prev.SiteRank, prev.LocalRanks
	return next.RankRefresh(changed, cfg)
}

// fullRecompute is the reference every refresh is compared with.
func fullRecompute(t *testing.T, dg *graph.DocGraph, cfg WebConfig) *WebResult {
	t.Helper()
	full, err := LayeredDocRank(dg, cfg)
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	return full
}

func TestUpdateMatchesFullRecomputeAfterEdgeChange(t *testing.T) {
	dg := churnWeb(t)
	cfg := WebConfig{Tol: 1e-11}
	rk, prev := solved(t, dg, cfg)
	mutateSite(t, dg, 2)

	inc, err := refreshOn(rk, dg, prev, []graph.SiteID{2}, cfg)
	if err != nil {
		t.Fatalf("refresh: %v", err)
	}
	full := fullRecompute(t, dg, cfg)
	if d := inc.DocRank.L1Diff(full.DocRank); d >= 1e-9 {
		t.Errorf("refresh vs full: L1 = %g", d)
	}
	if d := inc.SiteRank.L1Diff(full.SiteRank); d >= 1e-9 {
		t.Errorf("refresh vs full SiteRank: L1 = %g", d)
	}
}

func TestUpdateReusesUnchangedLocalRanks(t *testing.T) {
	dg := churnWeb(t)
	cfg := WebConfig{Tol: 1e-11}
	rk, prev := solved(t, dg, cfg)
	mutateSite(t, dg, 2)

	inc, err := refreshOn(rk, dg, prev, []graph.SiteID{2}, cfg)
	if err != nil {
		t.Fatalf("refresh: %v", err)
	}
	for s := range inc.LocalRanks {
		if s == 2 {
			continue
		}
		// Carried slices, not merely equal values.
		if &inc.LocalRanks[s][0] != &prev.LocalRanks[s][0] {
			t.Errorf("site %d local rank was recomputed", s)
		}
		if inc.LocalIterations[s] != 0 {
			t.Errorf("site %d recorded %d iterations for a carried rank", s, inc.LocalIterations[s])
		}
	}
	if inc.LocalIterations[2] == 0 {
		t.Error("changed site recorded no iterations")
	}
}

func TestUpdateWarmStartConverges(t *testing.T) {
	dg := churnWeb(t)
	cfg := WebConfig{Tol: 1e-11}
	rk, prev := solved(t, dg, cfg)
	// No change at all: the warm-started SiteRank converges in far fewer
	// iterations than the cold run.
	inc, err := refreshOn(rk, dg, prev, nil, cfg)
	if err != nil {
		t.Fatalf("refresh: %v", err)
	}
	if inc.SiteIterations >= prev.SiteIterations {
		t.Errorf("warm SiteRank took %d iterations, cold %d", inc.SiteIterations, prev.SiteIterations)
	}
	if d := inc.DocRank.L1Diff(prev.DocRank); d >= 1e-9 {
		t.Errorf("no-op refresh changed the ranking: %g", d)
	}
}

func TestUpdateHandlesNewSite(t *testing.T) {
	dg := churnWeb(t)
	cfg := WebConfig{Tol: 1e-11}
	rk, prev := solved(t, dg, cfg)

	// A new site joins (P2P churn) and trades links with site 0's first
	// page: site 0's out-links changed, the newcomer is implicit — and has
	// no seed, since prev is one site short.
	joined := rebuildWithNewSite(dg)
	inc, err := refreshOn(rk, joined, prev, []graph.SiteID{0}, cfg)
	if err != nil {
		t.Fatalf("refresh: %v", err)
	}
	if newcomer := joined.NumSites() - 1; inc.LocalIterations[newcomer] == 0 {
		t.Error("the appended site was not solved")
	}
	full := fullRecompute(t, joined, cfg)
	if d := inc.DocRank.L1Diff(full.DocRank); d >= 1e-9 {
		t.Errorf("refresh vs full after join: L1 = %g", d)
	}
}

func TestUpdateStaleDetection(t *testing.T) {
	dg := churnWeb(t)
	cfg := WebConfig{Tol: 1e-11}
	rk, prev := solved(t, dg, cfg)
	// Grow site 1's roster but do not list it as changed.
	grown := rebuildWithExtraDoc(dg, 1)
	if _, err := refreshOn(rk, grown, prev, nil, cfg); !errors.Is(err, ErrStaleResult) {
		t.Fatalf("err = %v, want ErrStaleResult", err)
	}
	// Listing it succeeds — its seed no longer fits and is ignored — and
	// matches a full recompute.
	inc, err := refreshOn(rk, grown, prev, []graph.SiteID{1}, cfg)
	if err != nil {
		t.Fatalf("refresh: %v", err)
	}
	full := fullRecompute(t, grown, cfg)
	if d := inc.DocRank.L1Diff(full.DocRank); d >= 1e-9 {
		t.Errorf("refresh vs full: %g", d)
	}
}

func TestUpdateValidation(t *testing.T) {
	dg := churnWeb(t)
	cfg := WebConfig{Tol: 1e-11}
	rk, prev := solved(t, dg, cfg)
	if _, err := refreshOn(rk, dg, prev, []graph.SiteID{99}, cfg); err == nil {
		t.Error("out-of-range changed site accepted")
	}
	// A graph that lost sites cannot reuse anything.
	smaller := randomWeb(rand.New(rand.NewSource(77)), 7, 70)
	if _, err := refreshOn(rk, smaller, prev, nil, cfg); !errors.Is(err, ErrStaleResult) {
		t.Errorf("graph with fewer sites: err = %v, want ErrStaleResult", err)
	}
	// No previous solution is not an error: every site solves cold, as in
	// Rank.
	cold, err := refreshOn(rk, dg, &WebResult{}, nil, cfg)
	if err != nil {
		t.Fatalf("refresh without seeds: %v", err)
	}
	if d := cold.DocRank.L1Diff(prev.DocRank); d != 0 {
		t.Errorf("unseeded refresh differs from Rank by %g", d)
	}
}
