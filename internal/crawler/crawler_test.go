package crawler

import (
	"strings"
	"testing"

	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/webgen"
)

// smallWeb generates the crawl target.
func smallWeb(seed int64) *webgen.Web {
	cfg := webgen.Small()
	cfg.Seed = seed
	return webgen.Generate(cfg)
}

func TestCrawlReconstructsReachableWeb(t *testing.T) {
	web := smallWeb(1)
	f := NewSnapshotFetcher(web.Graph)
	got, stats, err := Crawl(f, Config{Seeds: []string{"http://www.campus.example/"}})
	if err != nil {
		t.Fatalf("Crawl: %v", err)
	}
	if stats.Failed != 0 || stats.SkippedQueries != 0 {
		t.Errorf("stats = %+v", stats)
	}
	// The generator links every site home from the main directory, so the
	// crawl should capture (nearly) the whole web; pages with no in-links
	// are unreachable by construction of the generator only if isolated.
	if got.NumDocs() < web.Graph.NumDocs()*95/100 {
		t.Errorf("captured %d of %d docs", got.NumDocs(), web.Graph.NumDocs())
	}
	if got.NumSites() != web.Graph.NumSites() {
		t.Errorf("captured %d of %d sites", got.NumSites(), web.Graph.NumSites())
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestCrawlPreservesRanking(t *testing.T) {
	// Ranking the crawled snapshot must agree with ranking the original
	// reachable graph: same top documents by URL.
	web := smallWeb(2)
	f := NewSnapshotFetcher(web.Graph)
	crawled, _, err := Crawl(f, Config{Seeds: []string{"http://www.campus.example/"}})
	if err != nil {
		t.Fatalf("Crawl: %v", err)
	}
	orig, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{Tol: 1e-10})
	if err != nil {
		t.Fatalf("orig rank: %v", err)
	}
	snap, err := lmm.LayeredDocRank(crawled, lmm.WebConfig{Tol: 1e-10})
	if err != nil {
		t.Fatalf("snapshot rank: %v", err)
	}
	topOrig := topURL(web.Graph, orig.DocRank)
	topSnap := topURL(crawled, snap.DocRank)
	if topOrig != topSnap {
		t.Errorf("top URL changed across crawl: %q vs %q", topOrig, topSnap)
	}
}

func topURL(dg *graph.DocGraph, scores []float64) string {
	best := 0
	for i, s := range scores {
		if s > scores[best] {
			best = i
		}
	}
	return dg.URL(graph.DocID(best))
}

func TestMaxPagesTruncates(t *testing.T) {
	web := smallWeb(3)
	f := NewSnapshotFetcher(web.Graph)
	got, stats, err := Crawl(f, Config{
		Seeds:    []string{"http://www.campus.example/"},
		MaxPages: 20,
	})
	if err != nil {
		t.Fatalf("Crawl: %v", err)
	}
	if stats.Fetched != 20 {
		t.Errorf("Fetched = %d, want 20", stats.Fetched)
	}
	if stats.TruncatedFrontier == 0 {
		t.Error("expected a truncated frontier")
	}
	// Discovered-but-unfetched pages are dangling docs, like a stopped
	// real crawl.
	if len(got.G.Dangling()) == 0 {
		t.Error("expected dangling frontier docs")
	}
}

func TestMaxDepthLimitsExpansion(t *testing.T) {
	web := smallWeb(4)
	f := NewSnapshotFetcher(web.Graph)
	shallow, _, err := Crawl(f, Config{
		Seeds:    []string{"http://www.campus.example/"},
		MaxDepth: 1,
	})
	if err != nil {
		t.Fatalf("Crawl: %v", err)
	}
	deep, _, err := Crawl(f, Config{
		Seeds:    []string{"http://www.campus.example/"},
		MaxDepth: 3,
	})
	if err != nil {
		t.Fatalf("Crawl deep: %v", err)
	}
	if shallow.NumDocs() >= deep.NumDocs() {
		t.Errorf("depth 1 captured %d ≥ depth 3's %d", shallow.NumDocs(), deep.NumDocs())
	}
}

func TestExcludeQueriesDropsDynamicPages(t *testing.T) {
	// The ablation the paper argues against: excluding server-side-script
	// URLs removes the Webdriver agglomerate entirely.
	web := smallWeb(5)
	f := NewSnapshotFetcher(web.Graph)
	got, stats, err := Crawl(f, Config{
		Seeds:          []string{"http://www.campus.example/"},
		ExcludeQueries: true,
	})
	if err != nil {
		t.Fatalf("Crawl: %v", err)
	}
	if stats.SkippedQueries == 0 {
		t.Error("no query URLs skipped")
	}
	for d := range got.NumDocs() {
		if url := got.URL(graph.DocID(d)); strings.Contains(url, "?") {
			t.Fatalf("query URL captured: %s", url)
		}
	}
}

func TestFailureInjection(t *testing.T) {
	web := smallWeb(6)
	f := NewSnapshotFetcher(web.Graph)
	// Break one departmental home: its site is still discovered (the
	// directory links it) but contributes no out-links.
	broken := "http://dept003.campus.example/"
	f.Fail = map[string]bool{broken: true}
	got, stats, err := Crawl(f, Config{Seeds: []string{"http://www.campus.example/"}})
	if err != nil {
		t.Fatalf("Crawl: %v", err)
	}
	if stats.Failed != 1 {
		t.Errorf("Failed = %d, want 1", stats.Failed)
	}
	for d := range got.NumDocs() {
		if got.URL(graph.DocID(d)) == broken {
			if got.G.OutDegree(d) != 0 {
				t.Errorf("broken page has %d out-links", got.G.OutDegree(d))
			}
		}
	}
}

func TestCrawlDeterministic(t *testing.T) {
	web := smallWeb(7)
	f := NewSnapshotFetcher(web.Graph)
	a, _, err := Crawl(f, Config{Seeds: []string{"http://www.campus.example/"}, MaxPages: 50})
	if err != nil {
		t.Fatalf("Crawl: %v", err)
	}
	b, _, err := Crawl(f, Config{Seeds: []string{"http://www.campus.example/"}, MaxPages: 50})
	if err != nil {
		t.Fatalf("Crawl: %v", err)
	}
	if a.NumDocs() != b.NumDocs() || a.G.NumEdges() != b.G.NumEdges() {
		t.Fatal("crawl not deterministic")
	}
	for d := range graph.DocID(a.NumDocs()) {
		if a.URL(d) != b.URL(d) || a.SiteOf(d) != b.SiteOf(d) {
			t.Fatalf("doc %d differs between runs", d)
		}
	}
}

func TestCrawlRequiresSeeds(t *testing.T) {
	if _, _, err := Crawl(NewSnapshotFetcher(smallWeb(8).Graph), Config{}); err == nil {
		t.Fatal("seedless crawl accepted")
	}
}

func TestUnknownSeedCountsAsFailed(t *testing.T) {
	f := NewSnapshotFetcher(smallWeb(9).Graph)
	got, stats, err := Crawl(f, Config{Seeds: []string{"http://nowhere.example/"}})
	if err != nil {
		t.Fatalf("Crawl: %v", err)
	}
	if stats.Failed != 1 || stats.Fetched != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if got.NumDocs() != 1 {
		t.Errorf("captured %d docs, want just the seed", got.NumDocs())
	}
}

func TestMultiplicityPreserved(t *testing.T) {
	// Two parallel links from one page must survive the crawl so that
	// SiteLink counting matches the original.
	b := graph.NewBuilder()
	from := b.AddDoc("http://a.ex/")
	to := b.AddDoc("http://b.ex/")
	b.LinkIDs(from, to)
	b.LinkIDs(from, to)
	b.LinkIDs(to, from)
	dg := b.Build()

	crawled, _, err := Crawl(NewSnapshotFetcher(dg), Config{Seeds: []string{"http://a.ex/"}})
	if err != nil {
		t.Fatalf("Crawl: %v", err)
	}
	var weight float64
	crawled.G.EachEdge(0, func(e graph.Edge) { weight += e.Weight })
	if weight != 2 {
		t.Errorf("edge weight = %g, want 2 (multiplicity preserved)", weight)
	}
}
