package lmm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lmmrank/internal/graph"
	"lmmrank/internal/matrix"
)

// buildTwoSiteWeb builds a small web with two sites whose structure makes
// ranking expectations obvious: site a is heavily referenced by site b.
func buildTwoSiteWeb(t *testing.T) *graph.DocGraph {
	t.Helper()
	b := graph.NewBuilder()
	// Site a: hub home page and two children.
	b.AddLink("http://a.example/", "http://a.example/x")
	b.AddLink("http://a.example/", "http://a.example/y")
	b.AddLink("http://a.example/x", "http://a.example/")
	b.AddLink("http://a.example/y", "http://a.example/")
	// Site b: three pages, all pointing at site a's home.
	b.AddLink("http://b.example/", "http://b.example/p")
	b.AddLink("http://b.example/p", "http://b.example/q")
	b.AddLink("http://b.example/", "http://a.example/")
	b.AddLink("http://b.example/p", "http://a.example/")
	b.AddLink("http://b.example/q", "http://a.example/")
	dg := b.Build()
	if err := dg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return dg
}

func TestLayeredDocRankBasics(t *testing.T) {
	dg := buildTwoSiteWeb(t)
	res, err := LayeredDocRank(dg, WebConfig{})
	if err != nil {
		t.Fatalf("LayeredDocRank: %v", err)
	}
	if !res.DocRank.IsDistribution(1e-8) {
		t.Errorf("DocRank sums to %g, want 1", res.DocRank.Sum())
	}
	if !res.SiteRank.IsDistribution(1e-8) {
		t.Errorf("SiteRank sums to %g", res.SiteRank.Sum())
	}
	if len(res.LocalRanks) != dg.NumSites() {
		t.Fatalf("LocalRanks count = %d", len(res.LocalRanks))
	}
	for s, lr := range res.LocalRanks {
		if !lr.IsDistribution(1e-8) {
			t.Errorf("local rank of site %d not a distribution: %v", s, lr)
		}
	}
	// Site a receives all inter-site links, so it must outrank site b.
	if res.SiteRank[0] <= res.SiteRank[1] {
		t.Errorf("SiteRank = %v, want site a on top", res.SiteRank)
	}
	// And a.example/ should be the global top document.
	home, _ := docIDByURL(dg, "http://a.example/")
	if res.DocRank.ArgMax() != int(home) {
		t.Errorf("top doc = %d, want %d (a.example home)", res.DocRank.ArgMax(), home)
	}
}

func TestLayeredDocRankCompositionIdentity(t *testing.T) {
	// DocRank(d) must equal SiteRank(site(d)) · LocalRank(d) exactly.
	dg := buildTwoSiteWeb(t)
	res, err := LayeredDocRank(dg, WebConfig{})
	if err != nil {
		t.Fatalf("LayeredDocRank: %v", err)
	}
	for s := range dg.Sites {
		for i, d := range dg.Sites[s].Docs {
			want := res.SiteRank[s] * res.LocalRanks[s][i]
			if math.Abs(res.DocRank[d]-want) > 1e-12 {
				t.Errorf("doc %d: %g vs %g", d, res.DocRank[d], want)
			}
		}
	}
}

func TestLayeredDocRankSingleDocSites(t *testing.T) {
	b := graph.NewBuilder()
	b.AddLink("http://one.example/", "http://two.example/")
	b.AddLink("http://two.example/", "http://one.example/")
	dg := b.Build()
	res, err := LayeredDocRank(dg, WebConfig{})
	if err != nil {
		t.Fatalf("LayeredDocRank: %v", err)
	}
	// Each site has one doc with local rank 1; DocRank = SiteRank.
	if res.DocRank.L1Diff(res.SiteRank) > 1e-12 {
		t.Errorf("DocRank %v vs SiteRank %v", res.DocRank, res.SiteRank)
	}
}

func TestLayeredDocRankEmptyGraph(t *testing.T) {
	dg := &graph.DocGraph{G: graph.NewDigraph(0)}
	if _, err := LayeredDocRank(dg, WebConfig{}); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestLayeredDocRankParallelismDeterministic(t *testing.T) {
	dg := randomWeb(rand.New(rand.NewSource(17)), 12, 100)
	a, err := LayeredDocRank(dg, WebConfig{Parallelism: 1})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	b, err := LayeredDocRank(dg, WebConfig{Parallelism: 8})
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if a.DocRank.L1Diff(b.DocRank) > 1e-12 {
		t.Errorf("parallel result differs from sequential: %g", a.DocRank.L1Diff(b.DocRank))
	}
}

func TestSitePersonalizationLiftsSite(t *testing.T) {
	dg := buildTwoSiteWeb(t)
	base, err := LayeredDocRank(dg, WebConfig{})
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	pers := matrix.NewVector(dg.NumSites())
	pers[1] = 1 // teleport only to site b
	biased, err := LayeredDocRank(dg, WebConfig{SitePersonalization: pers})
	if err != nil {
		t.Fatalf("biased: %v", err)
	}
	if biased.SiteRank[1] <= base.SiteRank[1] {
		t.Errorf("site personalization did not lift site b: %g vs %g",
			biased.SiteRank[1], base.SiteRank[1])
	}
}

func TestDocPersonalizationLiftsDoc(t *testing.T) {
	dg := buildTwoSiteWeb(t)
	base, err := LayeredDocRank(dg, WebConfig{})
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	// Bias site a's local layer toward its second document.
	target := dg.Sites[0].Docs[1]
	v := matrix.NewVector(dg.SiteSize(0))
	v[1] = 1
	biased, err := LayeredDocRank(dg, WebConfig{
		DocPersonalization: map[graph.SiteID]matrix.Vector{0: v},
	})
	if err != nil {
		t.Fatalf("biased: %v", err)
	}
	if biased.DocRank[target] <= base.DocRank[target] {
		t.Errorf("doc personalization did not lift doc %d", target)
	}
}

func TestGlobalPageRankBaseline(t *testing.T) {
	dg := buildTwoSiteWeb(t)
	res, err := GlobalPageRank(dg, WebConfig{})
	if err != nil {
		t.Fatalf("GlobalPageRank: %v", err)
	}
	if !res.Scores.IsDistribution(1e-8) {
		t.Error("global PageRank not a distribution")
	}
	home, _ := docIDByURL(dg, "http://a.example/")
	if res.Scores.ArgMax() != int(home) {
		t.Errorf("flat PageRank top = %d, want %d", res.Scores.ArgMax(), home)
	}
}

func TestSubgraphSolverStandalone(t *testing.T) {
	g := graph.NewDigraph(3)
	g.AddLink(0, 1)
	g.AddLink(1, 2)
	g.AddLink(2, 0)
	pi, iters, err := NewSubgraphSolver(g).Rank(WebConfig{})
	if err != nil {
		t.Fatalf("SubgraphSolver.Rank: %v", err)
	}
	if !pi.IsDistribution(1e-9) || iters == 0 {
		t.Errorf("pi = %v, iters = %d", pi, iters)
	}
	one, _, err := NewSubgraphSolver(graph.NewDigraph(1)).Rank(WebConfig{})
	if err != nil || len(one) != 1 || one[0] != 1 {
		t.Errorf("singleton site: %v, %v", one, err)
	}
	empty, _, err := NewSubgraphSolver(graph.NewDigraph(0)).Rank(WebConfig{})
	if err != nil || len(empty) != 0 {
		t.Errorf("empty site: %v, %v", empty, err)
	}
}

// randomWeb generates a random multi-site DocGraph for property tests.
func randomWeb(rng *rand.Rand, nSites, nDocs int) *graph.DocGraph {
	b := graph.NewBuilder()
	urls := make([]string, 0, nDocs)
	for d := 0; d < nDocs; d++ {
		site := rng.Intn(nSites)
		url := fmt.Sprintf("http://s%d.example/p%d", site, d)
		b.AddDocInSite(url, fmt.Sprintf("s%d.example", site))
		urls = append(urls, url)
	}
	for e := 0; e < nDocs*3; e++ {
		b.AddLink(urls[rng.Intn(len(urls))], urls[rng.Intn(len(urls))])
	}
	return b.Build()
}

func docIDByURL(dg *graph.DocGraph, url string) (graph.DocID, bool) {
	for d, doc := range dg.Docs {
		if doc.URL == url {
			return graph.DocID(d), true
		}
	}
	return 0, false
}

// Property: the layered DocRank is always a distribution and the
// composition identity holds on random webs.
func TestLayeredDocRankQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dg := randomWeb(rng, rng.Intn(6)+2, rng.Intn(40)+5)
		res, err := LayeredDocRank(dg, WebConfig{})
		if err != nil {
			return false
		}
		if !res.DocRank.IsDistribution(1e-7) {
			return false
		}
		for s := range dg.Sites {
			for i, d := range dg.Sites[s].Docs {
				if math.Abs(res.DocRank[d]-res.SiteRank[s]*res.LocalRanks[s][i]) > 1e-10 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
