package lmm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"lmmrank/internal/graph"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
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
// a graph mutation in place, not on a clone, turns every query path of
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
	if _, _, err := rk.RankLocals(WebConfig{}); !errors.Is(err, ErrGraphMutated) {
		t.Errorf("RankLocals after mutation: err = %v, want ErrGraphMutated", err)
	}
	// A Share()d sibling sees the same core, hence the same verdict.
	if _, err := rk.Share().Rank(WebConfig{}); !errors.Is(err, ErrGraphMutated) {
		t.Errorf("shared Ranker after mutation: err = %v, want ErrGraphMutated", err)
	}
	// Nothing recorded what changed, so no incremental rebuild either.
	if _, err := rk.RebuildOn(dg.CloneCOW(), nil); !errors.Is(err, ErrGraphMutated) {
		t.Errorf("RebuildOn after mutation: err = %v, want ErrGraphMutated", err)
	}
}

// TestRebuildMatchesColdRanker is the correctness pin of the structural
// churn path: after a site-local mutation of a clone, the RebuildOn Ranker
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
	work := dg.CloneCOW()
	mutateSite(t, work, 3)

	warm, err := rk.RebuildOn(work, nil)
	if err != nil {
		t.Fatalf("RebuildOn: %v", err)
	}
	cold, err := NewRanker(work, RankerOptions{})
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
// RebuildOn cheap: the sites the clone did not write share what a Ranker retains of a site —
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
	work := dg.CloneCOW()
	mutateSite(t, work, 2)
	warm, err := rk.RebuildOn(work, nil)
	if err != nil {
		t.Fatalf("RebuildOn: %v", err)
	}
	for s := 0; s < rk.NumSites(); s++ {
		old, now := rk.core.sites[s], warm.core.sites[s]
		if old.fixed == nil && old.chain.Load() == nil {
			t.Fatalf("site %d: Prepare left no chain to share", s)
		}
		_, oldIdx := rk.LocalSubgraph(graph.SiteID(s))
		_, newIdx := warm.LocalSubgraph(graph.SiteID(s))
		if s == 2 {
			if old == now || oldIdx == newIdx || now.chain.Load() != nil {
				t.Errorf("changed site %d shares structure with the old core", s)
			}
			continue
		}
		if old != now || oldIdx != newIdx || old.chain.Load() != now.chain.Load() {
			t.Errorf("clean site %d was rebuilt", s)
		}
	}
	if warm.Stale() || rk.Stale() {
		t.Error("a Ranker reports stale after a rebuild on a clone")
	}
}

// TestRebuildStaleDetection: a roster the clone grew is rebuilt though
// no list names it — the site is derived from the clone — and the
// rebuilt Ranker ranks as a full recompute does.
func TestRebuildStaleDetection(t *testing.T) {
	dg := randomWeb(rand.New(rand.NewSource(94)), 6, 60)
	rk, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	work := dg.CloneCOW()
	addPage(work, 1)
	warm, err := rk.RebuildOn(work, nil)
	if err != nil {
		t.Fatalf("RebuildOn with a grown site unlisted: %v", err)
	}
	wres, err := warm.Rank(WebConfig{Tol: 1e-12})
	if err != nil {
		t.Fatalf("warm Rank: %v", err)
	}
	full, err := LayeredDocRank(work, WebConfig{Tol: 1e-12})
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	if d := wres.DocRank.L1Diff(full.DocRank); d >= 1e-12 {
		t.Errorf("‖rebuild − full‖₁ after growth = %g", d)
	}
}

// TestRebuildHandlesNewSite: a graph built afresh with a site appended is
// no clone of the Ranker's, so every site is rebuilt — correct, only
// slower — the appended one included.
func TestRebuildHandlesNewSite(t *testing.T) {
	dg := randomWeb(rand.New(rand.NewSource(95)), 6, 60)
	rk, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	dg = rebuildWithNewSite(dg)
	warm, err := rk.RebuildOn(dg, nil)
	if err != nil {
		t.Fatalf("RebuildOn after join: %v", err)
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
	warm, err := rk.RebuildOn(work, nil)
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

	dg = dg.CloneCOW()
	mutateSite(t, dg, 4)
	warm, err := rk.RebuildOn(dg, nil)
	if err != nil {
		t.Fatalf("RebuildOn: %v", err)
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
// rebuilt web differs from dg only where the caller then edits it.
func copyLinks(b *graph.Builder, dg *graph.DocGraph) {
	dg.G.EachEdgeAll(func(from int, e graph.Edge) {
		for k := 0; k < int(e.Weight); k++ {
			b.LinkIDs(graph.DocID(from), graph.DocID(e.To))
		}
	})
}

// copyDocs returns a builder holding dg's documents under their DocIDs.
func copyDocs(dg *graph.DocGraph) *graph.Builder {
	b := graph.NewBuilder()
	for d := range graph.DocID(dg.NumDocs()) {
		b.AddDocInSite(dg.URL(d), dg.Sites[dg.SiteOf(d)].Name)
	}
	return b
}

// rebuildWithNewSite reconstructs dg with one extra site appended. The
// builder assigns new DocIDs after the existing ones, so earlier sites'
// rosters keep their shape.
func rebuildWithNewSite(dg *graph.DocGraph) *graph.DocGraph {
	b := copyDocs(dg)
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

// addPage adds one page to site s of dg, linked with the site's home page
// both ways.
func addPage(dg *graph.DocGraph, s graph.SiteID) {
	extra := dg.AddDoc(fmt.Sprintf("http://%s/extra-page", dg.Sites[s].Name), s)
	home := dg.Sites[s].Docs[0]
	dg.G.AddLink(int(extra), int(home))
	dg.G.AddLink(int(home), int(extra))
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
// structure of the sites dg changed since rk's graph, then RankRefresh
// them seeded with prev — and the DocRank a refresh does not compose,
// composed from its solutions.
func refreshOn(rk *Ranker, dg *graph.DocGraph, prev *WebResult, cfg WebConfig) (*WebResult, error) {
	changed := dg.ChangedSince(rk.DocGraph())
	next, err := rk.RebuildOn(dg, nil)
	if err != nil {
		return nil, err
	}
	cfg.SiteStart, cfg.LocalStarts = prev.SiteRank, prev.LocalRanks
	res, err := next.RankRefresh(changed, cfg)
	if err != nil {
		return nil, err
	}
	if res.DocRank != nil {
		return nil, fmt.Errorf("RankRefresh composed a DocRank")
	}
	res.DocRank = ComposeDocRank(dg, res.SiteRank, res.LocalRanks)
	return res, nil
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
	dg = dg.CloneCOW()
	mutateSite(t, dg, 2)

	inc, err := refreshOn(rk, dg, prev, cfg)
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
	dg = dg.CloneCOW()
	mutateSite(t, dg, 2)

	inc, err := refreshOn(rk, dg, prev, cfg)
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
	inc, err := refreshOn(rk, dg.CloneCOW(), prev, cfg)
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
	// page on a clone: site 0's out-links changed, and the newcomer has no
	// seed, since prev is one site short.
	joined := dg.CloneCOW()
	joined.Sites = append(joined.Sites, graph.Site{Name: "newpeer.example"})
	addPage(joined, graph.SiteID(joined.NumSites()-1))
	addPage(joined, graph.SiteID(joined.NumSites()-1))
	joined.G.AddLink(int(dg.Sites[0].Docs[0]), dg.NumDocs())
	inc, err := refreshOn(rk, joined, prev, cfg)
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
	// Grow site 1's roster on a clone: the site is derived, its seed no
	// longer fits and is ignored, and the refresh matches a full
	// recompute.
	grown := dg.CloneCOW()
	addPage(grown, 1)
	inc, err := refreshOn(rk, grown, prev, cfg)
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
	// A graph that lost sites cannot reuse anything.
	smaller := randomWeb(rand.New(rand.NewSource(77)), 7, 70)
	if _, err := refreshOn(rk, smaller, prev, cfg); !errors.Is(err, ErrStaleResult) {
		t.Errorf("graph with fewer sites: err = %v, want ErrStaleResult", err)
	}
	// No previous solution is not an error: every site solves cold, as in
	// Rank.
	cold, err := refreshOn(rk, dg.CloneCOW(), &WebResult{}, cfg)
	if err != nil {
		t.Fatalf("refresh without seeds: %v", err)
	}
	if d := cold.DocRank.L1Diff(prev.DocRank); d != 0 {
		t.Errorf("unseeded refresh differs from Rank by %g", d)
	}
}

// keptChains lists the sites whose chain rk's core keeps.
func keptChains(rk *Ranker) []int {
	var kept []int
	for s, st := range rk.core.sites {
		if st.chain.Load() != nil {
			kept = append(kept, s)
		}
	}
	return kept
}

// solvedSites lists the sites of rk's core that need a chain to solve.
func solvedSites(rk *Ranker) []int {
	var sites []int
	for s, st := range rk.core.sites {
		if st.fixed == nil {
			sites = append(sites, s)
		}
	}
	return sites
}

// sameBits reports whether two vectors hold the same floats bit for bit.
func sameBits(a, b matrix.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRefreshKeepsNoChain pins which solves keep a site's chain: a
// RankRefresh solves on chains the core does not keep, and answers bit
// for bit as on a prepared core; a Rank keeps every chain it builds; and
// after a rebuild the refresh keeps none for the changed site, while the
// clean sites go on sharing theirs with the old core.
func TestRefreshKeepsNoChain(t *testing.T) {
	dg := randomWeb(rand.New(rand.NewSource(95)), 8, 120)
	lazy, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prepared.Prepare()
	got, err := lazy.Share().RankRefresh(nil, WebConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := prepared.Share().RankRefresh(nil, WebConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(ComposeDocRank(dg, got.SiteRank, got.LocalRanks), ComposeDocRank(dg, want.SiteRank, want.LocalRanks)) {
		t.Error("a refresh on dropped chains differs from one on kept chains")
	}
	if kept := keptChains(lazy); len(kept) != 0 {
		t.Errorf("a refresh kept the chains of sites %v", kept)
	}
	if _, err := lazy.Share().Rank(WebConfig{}); err != nil {
		t.Fatal(err)
	}
	if kept, all := keptChains(lazy), solvedSites(lazy); fmt.Sprint(kept) != fmt.Sprint(all) {
		t.Errorf("after a Rank the core keeps the chains of sites %v, want %v", kept, all)
	}

	const changed = graph.SiteID(2)
	work := dg.CloneCOW()
	mutateSite(t, work, changed)
	next, err := lazy.RebuildOn(work, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := WebConfig{SiteStart: got.SiteRank, LocalStarts: got.LocalRanks}
	if _, err := next.Share().RankRefresh([]graph.SiteID{changed}, cfg); err != nil {
		t.Fatal(err)
	}
	for _, s := range solvedSites(next) {
		old, now := lazy.core.sites[s].chain.Load(), next.core.sites[s].chain.Load()
		if graph.SiteID(s) == changed {
			if now != nil {
				t.Errorf("the refresh kept the changed site %d's chain", s)
			}
		} else if now == nil || now != old {
			t.Errorf("clean site %d does not share its kept chain with the old core", s)
		}
	}
}

// TestLazyChainsBuiltOnce: concurrent first queries on a core that keeps
// no chain — the refresh on a fresh core's, and queries on the core an
// incremental rebuild derives from it beside them — build each site's
// chain exactly once a core: a clean site's once for both cores, which
// share it, and the changed site's once for the old core and once for the
// new one, whose refresh also builds one it drops. Every answer equals a
// prepared core's bit for bit.
func TestLazyChainsBuiltOnce(t *testing.T) {
	dg := randomWeb(rand.New(rand.NewSource(97)), 12, 400)
	type build struct {
		dg *graph.DocGraph
		s  graph.SiteID
	}
	var mu sync.Mutex
	builds := map[build]int{}
	defer func(orig func(*graph.DocGraph, graph.SiteID) *pagerank.Chain) { buildChain = orig }(buildChain)
	orig := buildChain
	buildChain = func(dg *graph.DocGraph, s graph.SiteID) *pagerank.Chain {
		mu.Lock()
		builds[build{dg, s}]++
		mu.Unlock()
		return orig(dg, s)
	}

	cfg := WebConfig{Damping: 0.8, Parallelism: 1}
	reference := func(dg *graph.DocGraph) matrix.Vector {
		rk, err := NewRanker(dg, RankerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rk.Prepare()
		res, err := rk.Rank(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.DocRank.Clone()
	}
	const changed = graph.SiteID(4)
	work := dg.CloneCOW()
	mutateSite(t, work, changed)
	wantOld, wantNew := reference(dg), reference(work)

	old, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refreshed, err := old.Share().RankRefresh(nil, WebConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	clear(builds)
	mu.Unlock()

	query := func(rk *Ranker, want matrix.Vector, wg *sync.WaitGroup) {
		defer wg.Done()
		res, err := rk.Share().Rank(cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if !sameBits(res.DocRank, want) {
			t.Error("a query on lazily built chains differs from one on a prepared core")
		}
	}
	const queries = 8
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go query(old, wantOld, &wg)
	}
	next, err := old.RebuildOn(work, nil)
	if err != nil {
		t.Fatal(err)
	}
	seeds := WebConfig{SiteStart: refreshed.SiteRank, LocalStarts: refreshed.LocalRanks}
	if _, err := next.Share().RankRefresh([]graph.SiteID{changed}, seeds); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go query(next, wantNew, &wg)
	}
	wg.Wait()

	for _, s := range solvedSites(old) {
		site := graph.SiteID(s)
		if site == changed {
			if n := builds[build{dg, site}]; n != 1 {
				t.Errorf("changed site %d: the old core built its chain %d times, want 1", s, n)
			}
			if n := builds[build{work, site}]; n != 2 {
				t.Errorf("changed site %d: the new core built %d chains, want 2 (the refresh's, dropped, and the one its queries keep)", s, n)
			}
			continue
		}
		if n := builds[build{dg, site}] + builds[build{work, site}]; n != 1 {
			t.Errorf("clean site %d: its chain was built %d times for both cores, want 1", s, n)
		}
	}
}
