package webgen

import (
	"strings"
	"testing"

	"lmmrank/internal/graph"
	"lmmrank/internal/matrix"
)

func TestGenerateSmallStructure(t *testing.T) {
	cfg := Small()
	cfg.Seed = 1
	w := Generate(cfg)
	dg := w.Graph
	if err := dg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// cfg.Sites ordinary sites plus the two agglomerate hosts.
	if got, want := dg.NumSites(), cfg.Sites+2; got != want {
		t.Errorf("NumSites = %d, want %d", got, want)
	}
	if len(w.Class) != dg.NumDocs() {
		t.Fatalf("Class length %d vs %d docs", len(w.Class), dg.NumDocs())
	}
	if w.CountClass(ClassDynamicAgglomerate) != cfg.DynamicClusterPages {
		t.Errorf("dynamic agglomerate pages = %d, want %d",
			w.CountClass(ClassDynamicAgglomerate), cfg.DynamicClusterPages)
	}
	if w.CountClass(ClassDocAgglomerate) != cfg.DocClusterPages {
		t.Errorf("doc agglomerate pages = %d, want %d",
			w.CountClass(ClassDocAgglomerate), cfg.DocClusterPages)
	}
	if w.CountClass(ClassHome) != cfg.Sites+2 {
		t.Errorf("home pages = %d, want %d", w.CountClass(ClassHome), cfg.Sites+2)
	}
	if got := w.CountClass(ClassAuthority); got != cfg.AuthorityPages {
		t.Errorf("authority pages = %d, want %d", got, cfg.AuthorityPages)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Small()
	cfg.Seed = 42
	a := Generate(cfg)
	b := Generate(cfg)
	if a.Graph.NumDocs() != b.Graph.NumDocs() {
		t.Fatalf("doc counts differ: %d vs %d", a.Graph.NumDocs(), b.Graph.NumDocs())
	}
	if a.Graph.G.NumEdges() != b.Graph.G.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.Graph.G.NumEdges(), b.Graph.G.NumEdges())
	}
	sameDoc := func(x, y *graph.DocGraph, d graph.DocID) bool {
		return x.URL(d) == y.URL(d) && x.SiteOf(d) == y.SiteOf(d)
	}
	for d := range a.Graph.NumDocs() {
		if !sameDoc(a.Graph, b.Graph, graph.DocID(d)) {
			t.Fatalf("doc %d differs", d)
		}
		if a.Class[d] != b.Class[d] {
			t.Fatalf("class of doc %d differs", d)
		}
	}
	c := cfg
	c.Seed = 43
	other := Generate(c)
	if other.Graph.G.NumEdges() == a.Graph.G.NumEdges() &&
		other.Graph.NumDocs() == a.Graph.NumDocs() {
		// Sizes may coincide; require at least some doc difference.
		same := true
		for d := range a.Graph.NumDocs() {
			if !sameDoc(a.Graph, other.Graph, graph.DocID(d)) {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical webs")
		}
	}
}

func TestAgglomerateHubInDegrees(t *testing.T) {
	cfg := Small()
	cfg.Seed = 7
	w := Generate(cfg)
	in := w.Graph.G.InDegrees()

	// The dynamic hubs must be among the highest in-degree pages: nearly
	// every cluster page links each hub.
	hubMin := cfg.DynamicClusterPages - 10
	var dynamicHubSeen bool
	for d, c := range w.Class {
		if c == ClassDynamicAgglomerate && in[d] >= hubMin {
			dynamicHubSeen = true
			break
		}
	}
	if !dynamicHubSeen {
		t.Errorf("no dynamic hub with in-degree ≥ %d found", hubMin)
	}

	var docHubSeen bool
	for d, c := range w.Class {
		if c == ClassDocAgglomerate && in[d] >= cfg.DocClusterPages-10 {
			docHubSeen = true
			break
		}
	}
	if !docHubSeen {
		t.Error("no javadoc index with near-cluster in-degree found")
	}

	// The main home must also be a strong hub (directory + breadcrumbs).
	if in[w.MainHome] < cfg.Sites {
		t.Errorf("main home in-degree = %d, want ≥ %d", in[w.MainHome], cfg.Sites)
	}
}

func TestSiteGraphStronglyConnectedViaDirectory(t *testing.T) {
	cfg := Small()
	cfg.Seed = 3
	w := Generate(cfg)
	sg := graph.DeriveSiteGraph(w.Graph, graph.SiteGraphOptions{})
	if _, n := matrix.StrongComponents(sg.G); n != 1 {
		t.Errorf("SiteGraph has %d strongly connected components, want 1", n)
	}
}

func TestURLNamingMatchesPaperPatterns(t *testing.T) {
	cfg := Small()
	cfg.Seed = 9
	w := Generate(cfg)
	var sawWebdriver, sawJavadoc bool
	for d := range w.Graph.NumDocs() {
		url := w.Graph.URL(graph.DocID(d))
		if strings.Contains(url, "/research/Webdriver?") {
			sawWebdriver = true
		}
		if strings.Contains(url, "jdk1.4/docs/api/") {
			sawJavadoc = true
		}
	}
	if !sawWebdriver || !sawJavadoc {
		t.Errorf("agglomerate URL patterns missing: webdriver=%v javadoc=%v",
			sawWebdriver, sawJavadoc)
	}
}

func TestSpamFlags(t *testing.T) {
	cfg := Small()
	cfg.Seed = 5
	w := Generate(cfg)
	flags := w.SpamFlags()
	var n int
	for _, f := range flags {
		if f {
			n++
		}
	}
	if want := cfg.DynamicClusterPages + cfg.DocClusterPages; n != want {
		t.Errorf("spam flags = %d, want %d", n, want)
	}
}

func TestDisabledAgglomerates(t *testing.T) {
	cfg := Small()
	cfg.Seed = 2
	cfg.DynamicClusterPages = 0
	cfg.DocClusterPages = 0
	w := Generate(cfg)
	if got := w.CountClass(ClassDynamicAgglomerate) + w.CountClass(ClassDocAgglomerate); got != 0 {
		t.Errorf("agglomerate pages = %d with clusters disabled", got)
	}
	if got, want := w.Graph.NumSites(), cfg.Sites; got != want {
		t.Errorf("NumSites = %d, want %d (no agglomerate hosts)", got, want)
	}
}

func TestDefaultsApplied(t *testing.T) {
	w := Generate(Config{Seed: 1, Sites: 5, MeanSitePages: 5,
		DynamicClusterPages: 10, DocClusterPages: 10})
	if w.Graph.NumDocs() == 0 {
		t.Fatal("empty web")
	}
	// Power-law sizes: every ordinary site has at least 3 pages.
	for s := 0; s < 5; s++ {
		if w.Graph.SiteSize(graph.SiteID(s)) < 3 {
			t.Errorf("site %d has %d pages", s, w.Graph.SiteSize(graph.SiteID(s)))
		}
	}
}
