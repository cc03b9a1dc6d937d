package graph

import (
	"math/rand"
	"testing"
)

func TestTransitionMatrixCached(t *testing.T) {
	g := NewDigraph(3)
	g.AddLink(0, 1)
	g.AddLink(1, 2)
	m1 := g.TransitionMatrix()
	if m2 := g.TransitionMatrix(); m2 != m1 {
		t.Error("second TransitionMatrix call did not return the cached matrix")
	}
}

func TestTransitionMatrixInvalidatedByAddEdge(t *testing.T) {
	g := NewDigraph(3)
	g.AddLink(0, 1)
	m1 := g.TransitionMatrix()
	if got := m1.At(0, 1); got != 1 {
		t.Fatalf("M[0,1] = %g, want 1", got)
	}
	g.AddLink(0, 2)
	m2 := g.TransitionMatrix()
	if m2 == m1 {
		t.Fatal("AddEdge did not invalidate the cached transition matrix")
	}
	if got := m2.At(0, 1); got != 0.5 {
		t.Errorf("after new edge M[0,1] = %g, want 0.5", got)
	}
}

func TestTransitionMatrixInvalidatedByEnsureNodes(t *testing.T) {
	g := NewDigraph(2)
	g.AddLink(0, 1)
	m1 := g.TransitionMatrix()
	g.EnsureNodes(4)
	m2 := g.TransitionMatrix()
	if m2 == m1 {
		t.Fatal("EnsureNodes growth did not invalidate the cache")
	}
	if m2.Order() != 4 {
		t.Errorf("Order = %d, want 4", m2.Order())
	}
	// A no-growth EnsureNodes must keep the cache.
	m3 := g.TransitionMatrix()
	g.EnsureNodes(3)
	if g.TransitionMatrix() != m3 {
		t.Error("no-growth EnsureNodes dropped the cache")
	}
}

// TestVersionTracksContentMutations pins the mutation counter's contract:
// AddEdge and EnsureNodes growth advance it, while Dedupe and
// TransitionMatrix (storage reorganizations, not content changes) keep it
// stable — the property lmm.Ranker's stale detection depends on.
func TestVersionTracksContentMutations(t *testing.T) {
	g := NewDigraph(3)
	v0 := g.Version()
	g.AddLink(0, 1)
	if g.Version() == v0 {
		t.Fatal("AddEdge did not advance the version")
	}
	g.AddLink(0, 1) // duplicate edge is still a content mutation
	v1 := g.Version()
	g.Dedupe()
	g.TransitionMatrix()
	g.OutDegree(0)
	if g.Version() != v1 {
		t.Error("Dedupe/TransitionMatrix/OutDegree advanced the version")
	}
	g.EnsureNodes(2) // no growth
	if g.Version() != v1 {
		t.Error("no-growth EnsureNodes advanced the version")
	}
	g.EnsureNodes(5)
	if g.Version() == v1 {
		t.Error("EnsureNodes growth did not advance the version")
	}
	// Clones carry the counter but advance independently.
	c := g.Clone()
	if c.Version() != g.Version() {
		t.Error("clone does not carry the version")
	}
	c.AddLink(0, 2)
	if c.Version() == g.Version() {
		t.Error("clone mutation did not advance its own version")
	}
}

func TestCloneDoesNotShareTransitionCache(t *testing.T) {
	g := NewDigraph(2)
	g.AddLink(0, 1)
	g.TransitionMatrix()
	c := g.Clone()
	c.AddLink(1, 0)
	if c.TransitionMatrix().At(1, 0) != 1 {
		t.Error("clone transition wrong")
	}
	if g.TransitionMatrix().At(1, 0) != 0 {
		t.Error("original transition affected by clone mutation")
	}
}

// mapLocalSubgraph is the pre-optimization extraction (per-site map,
// AddEdge + Dedupe), kept as the reference the local-column extraction
// must reproduce exactly.
func mapLocalSubgraph(dg *DocGraph, s SiteID) *Digraph {
	docs := dg.Sites[s].Docs
	toLocal := make(map[DocID]int, len(docs))
	for i, d := range docs {
		toLocal[d] = i
	}
	sub := NewDigraph(len(docs))
	for i, d := range docs {
		dg.G.EachEdge(int(d), func(e Edge) {
			if j, ok := toLocal[DocID(e.To)]; ok {
				sub.AddEdge(i, j, e.Weight)
			}
		})
	}
	sub.Dedupe()
	return sub
}

func sameDigraph(t *testing.T, got, want *Digraph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("nodes %d vs %d", got.NumNodes(), want.NumNodes())
	}
	for i := 0; i < got.NumNodes(); i++ {
		var ge, we []Edge
		got.EachEdge(i, func(e Edge) { ge = append(ge, e) })
		want.EachEdge(i, func(e Edge) { we = append(we, e) })
		if len(ge) != len(we) {
			t.Fatalf("node %d: %d vs %d edges", i, len(ge), len(we))
		}
		for k := range ge {
			if ge[k] != we[k] {
				t.Fatalf("node %d edge %d: %+v vs %+v", i, k, ge[k], we[k])
			}
		}
	}
}

func TestLocalSubgraphMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		dg := benchDocGraph(rng.Intn(5)+2, rng.Intn(20)+2, rng.Int63())
		// Duplicate links exercise the parent-dedupe-first contract.
		nd := dg.NumDocs()
		for e := 0; e < nd; e++ {
			dg.G.AddLink(rng.Intn(nd), rng.Intn(nd))
		}
		for s := 0; s < dg.NumSites(); s++ {
			got, idx := dg.LocalSubgraph(SiteID(s))
			want := mapLocalSubgraph(dg, SiteID(s))
			sameDigraph(t, got, want)
			for i, d := range idx.ToGlobal {
				if j := dg.LocalOf(d); j != i || d != dg.Sites[s].Docs[i] {
					t.Fatalf("LocalOf(%d) = %d, want %d", d, j, i)
				}
			}
		}
	}
}

// A hand-built DocGraph with a non-ascending site roster is refused:
// the extraction numbers a site's documents by searching its roster, so
// Validate, which NewRanker trusts, must not let one through.
func TestLocalSubgraphNonAscendingRoster(t *testing.T) {
	g := NewDigraph(3)
	g.AddLink(0, 1)
	g.AddLink(1, 0)
	g.AddLink(1, 2)
	g.AddLink(2, 2)
	dg := &DocGraph{G: g, Sites: []Site{{Name: "a"}, {Name: "b"}}}
	dg.AddDoc("a/0", 0)
	dg.AddDoc("a/1", 0)
	dg.AddDoc("b/0", 1)
	r := dg.Sites[0].Docs
	r[0], r[1] = r[1], r[0] // deliberately descending
	if err := dg.Validate(); err == nil {
		t.Fatal("Validate accepted a descending roster")
	}
}
