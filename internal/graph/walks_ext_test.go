package graph_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"lmmrank/internal/graph"
	"lmmrank/internal/webgen"
)

// The whole-web walks a Ranker's set-up pays before it solves anything —
// the SiteGraph's derivation, the web's transition matrix and every
// site's local subgraph — each over two webs whose duplicate links merge
// into the weights other than 1 that the rows list apart: the default
// generated web, every link of which is near (2 bytes, its distance from
// its source), and lmmload's web-mid (113 644 documents), 2.7 % of whose
// links reach farther and are listed apart. ns/link counts the links each
// walk reads or keeps.

// webMid is cmd/lmmload's web-mid.
var webMid = webgen.Config{Seed: 2005, Sites: 218, MeanSitePages: 400, DynamicClusterPages: 10000, DocClusterPages: 10000}

// walkWebs are the webs the walk benchmarks run over, by leg name.
var walkWebs = []struct {
	name string
	cfg  webgen.Config
}{
	{"default", webgen.Default()},
	{"web-mid", webMid},
}

func BenchmarkDeriveSiteGraph(b *testing.B) {
	for _, web := range walkWebs {
		b.Run(web.name, func(b *testing.B) {
			dg := webgen.Generate(web.cfg).Graph
			dg.Dedupe()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				graph.DeriveSiteGraph(dg, graph.SiteGraphOptions{})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*dg.G.NumEdges()), "ns/link")
		})
	}
}

// BenchmarkTransitionMatrix builds the matrix on every iteration: the
// cache is dropped first, or it would time the memoized return.
func BenchmarkTransitionMatrix(b *testing.B) {
	for _, web := range walkWebs {
		b.Run(web.name, func(b *testing.B) {
			g := webgen.Generate(web.cfg).Graph.G
			g.Dedupe()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				graph.DropTransition(g)
				g.TransitionMatrix()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.NumEdges()), "ns/link")
		})
	}
}

// BenchmarkLocalSubgraph is the §3.1 split by the link: extracting the
// largest site of each web, and one pass over all its sites — the
// preprocessing a Ranker's Prepare pays. ns/link counts the links the
// extraction keeps.
func BenchmarkLocalSubgraph(b *testing.B) {
	for _, web := range walkWebs {
		dg := webgen.Generate(web.cfg).Graph
		dg.Dedupe()
		largest, all := []graph.SiteID{0}, make([]graph.SiteID, dg.NumSites())
		for s := range all {
			all[s] = graph.SiteID(s)
			if dg.SiteSize(all[s]) > dg.SiteSize(largest[0]) {
				largest[0] = all[s]
			}
		}
		for _, bc := range []struct {
			name  string
			sites []graph.SiteID
		}{{"largest-site", largest}, {"all-sites", all}} {
			b.Run(web.name+"/"+bc.name, func(b *testing.B) {
				b.ReportAllocs()
				links := 0
				for i := 0; i < b.N; i++ {
					for _, s := range bc.sites {
						sub, _ := dg.LocalSubgraph(s)
						links += sub.NumEdges()
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(links), "ns/link")
			})
		}
	}
}

// TestLocalSubgraphAllocBytesPerLink pins what extracting every site of
// the default web allocates per link it keeps: the subgraphs' own columns
// (a 2-byte target a link, a 4-byte row offset a document, 12 bytes a
// link of weight other than 1) and a few fixed-size headers a site, ≈ 4.2
// bytes a link. A walk that writes the target column at the rows' stored
// degree and copies it to length, or grows the listed columns by append,
// allocated 9.0. The pass is made twice and the second one measured, so
// the walk's pooled scratch is warm, as it is on every set-up but the
// first extraction's.
func TestLocalSubgraphAllocBytesPerLink(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops the walk's scratch at random")
	}
	const limit = 5.0 // bytes a link
	dg := webgen.Generate(webgen.Default()).Graph
	dg.Dedupe()
	// As in TestLocalSubgraphAllocsIndependentOfWeb: TotalAlloc is
	// process-wide, so the collector and other Ps are held off for the
	// whole window, the warm-up included (the pool is per P).
	var m0, m1 runtime.MemStats
	gcPercent, procs := debug.SetGCPercent(-1), runtime.GOMAXPROCS(1)
	links := 0
	for pass := range 2 {
		if pass == 1 {
			runtime.ReadMemStats(&m0)
		}
		for s := range dg.Sites {
			sub, _ := dg.LocalSubgraph(graph.SiteID(s))
			links += pass * sub.NumEdges()
		}
	}
	runtime.ReadMemStats(&m1)
	debug.SetGCPercent(gcPercent)
	runtime.GOMAXPROCS(procs)
	perLink := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(links)
	t.Logf("extracting %d sites (%d links) allocated %.2f bytes a link", dg.NumSites(), links, perLink)
	if perLink > limit {
		t.Errorf("extracting every site allocated %.2f bytes a link, want at most %g", perLink, limit)
	}
}
