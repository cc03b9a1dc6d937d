package lmm

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"lmmrank/internal/graph"
)

// churnWeb builds a deterministic 8-site web for update tests.
func churnWeb(t *testing.T) *graph.DocGraph {
	t.Helper()
	return randomWeb(rand.New(rand.NewSource(77)), 8, 80)
}

func TestUpdateMatchesFullRecomputeAfterEdgeChange(t *testing.T) {
	dg := churnWeb(t)
	cfg := WebConfig{Tol: 1e-11}
	prev, err := LayeredDocRank(dg, cfg)
	if err != nil {
		t.Fatalf("initial: %v", err)
	}

	// Mutate site 2: add intra-site links between its first documents.
	docs := dg.Sites[2].Docs
	if len(docs) < 2 {
		t.Skip("site 2 too small in this seed")
	}
	dg.G.AddLink(int(docs[0]), int(docs[1]))
	dg.G.AddLink(int(docs[1]), int(docs[0]))

	inc, err := UpdateLayeredDocRank(dg, prev, []graph.SiteID{2}, cfg)
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	full, err := LayeredDocRank(dg, cfg)
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	if d := inc.DocRank.L1Diff(full.DocRank); d > 1e-8 {
		t.Errorf("incremental vs full: L1 = %g", d)
	}
	if d := inc.SiteRank.L1Diff(full.SiteRank); d > 1e-8 {
		t.Errorf("incremental vs full SiteRank: L1 = %g", d)
	}
}

func TestUpdateReusesUnchangedLocalRanks(t *testing.T) {
	dg := churnWeb(t)
	cfg := WebConfig{Tol: 1e-11}
	prev, err := LayeredDocRank(dg, cfg)
	if err != nil {
		t.Fatalf("initial: %v", err)
	}
	docs := dg.Sites[2].Docs
	if len(docs) < 2 {
		t.Skip("site 2 too small")
	}
	dg.G.AddLink(int(docs[0]), int(docs[1]))
	inc, err := UpdateLayeredDocRank(dg, prev, []graph.SiteID{2}, cfg)
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	for s := range inc.LocalRanks {
		if s == 2 {
			continue
		}
		// Reused slices, not merely equal values.
		if &inc.LocalRanks[s][0] != &prev.LocalRanks[s][0] {
			t.Errorf("site %d local rank was recomputed", s)
		}
		if inc.LocalIterations[s] != 0 {
			t.Errorf("site %d recorded %d iterations for a reused rank", s, inc.LocalIterations[s])
		}
	}
	if inc.LocalIterations[2] == 0 {
		t.Error("changed site recorded no iterations")
	}
}

func TestUpdateWarmStartConverges(t *testing.T) {
	dg := churnWeb(t)
	cfg := WebConfig{Tol: 1e-11}
	prev, err := LayeredDocRank(dg, cfg)
	if err != nil {
		t.Fatalf("initial: %v", err)
	}
	// No change at all: warm-started SiteRank should converge in far
	// fewer iterations than the cold run.
	inc, err := UpdateLayeredDocRank(dg, prev, nil, cfg)
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if inc.SiteIterations >= prev.SiteIterations {
		t.Errorf("warm SiteRank took %d iterations, cold %d", inc.SiteIterations, prev.SiteIterations)
	}
	if d := inc.DocRank.L1Diff(prev.DocRank); d > 1e-8 {
		t.Errorf("no-op update changed the ranking: %g", d)
	}
}

func TestUpdateHandlesNewSite(t *testing.T) {
	dg := churnWeb(t)
	cfg := WebConfig{Tol: 1e-11}
	prev, err := LayeredDocRank(dg, cfg)
	if err != nil {
		t.Fatalf("initial: %v", err)
	}

	// A new site joins (P2P churn) and links to site 0.
	rebuilt := rebuildWithNewSite(dg)
	inc, err := UpdateLayeredDocRank(rebuilt, prev, nil, cfg) // new site auto-changed
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	full, err := LayeredDocRank(rebuilt, cfg)
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	if d := inc.DocRank.L1Diff(full.DocRank); d > 1e-8 {
		t.Errorf("incremental vs full after join: L1 = %g", d)
	}
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

func TestUpdateStaleDetection(t *testing.T) {
	dg := churnWeb(t)
	cfg := WebConfig{Tol: 1e-10}
	prev, err := LayeredDocRank(dg, cfg)
	if err != nil {
		t.Fatalf("initial: %v", err)
	}
	// Grow site 1's roster but do not list it as changed.
	grown := rebuildWithExtraDoc(dg, 1)
	if _, err := UpdateLayeredDocRank(grown, prev, nil, cfg); !errors.Is(err, ErrStaleResult) {
		t.Fatalf("err = %v, want ErrStaleResult", err)
	}
	// Listing it as changed succeeds and matches a full recompute.
	inc, err := UpdateLayeredDocRank(grown, prev, []graph.SiteID{1}, cfg)
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	full, err := LayeredDocRank(grown, cfg)
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	if d := inc.DocRank.L1Diff(full.DocRank); d > 1e-8 {
		t.Errorf("incremental vs full: %g", d)
	}
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

func TestUpdateValidation(t *testing.T) {
	dg := churnWeb(t)
	cfg := WebConfig{}
	prev, err := LayeredDocRank(dg, cfg)
	if err != nil {
		t.Fatalf("initial: %v", err)
	}
	if _, err := UpdateLayeredDocRank(dg, nil, nil, cfg); err == nil {
		t.Error("nil previous result accepted")
	}
	if _, err := UpdateLayeredDocRank(dg, prev, []graph.SiteID{99}, cfg); err == nil {
		t.Error("out-of-range changed site accepted")
	}
}
