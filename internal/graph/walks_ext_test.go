package graph_test

import (
	"testing"

	"lmmrank/internal/graph"
	"lmmrank/internal/webgen"
)

// The whole-web walks a Ranker's set-up pays before it solves anything —
// the SiteGraph's derivation, the web's transition matrix and every
// site's local subgraph — each over the default generated web, whose
// duplicate links merge into the weights other than 1 that the rows list
// apart. ns/link counts the links each walk reads or keeps.

func BenchmarkDeriveSiteGraph(b *testing.B) {
	dg := webgen.Generate(webgen.Default()).Graph
	dg.Dedupe()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.DeriveSiteGraph(dg, graph.SiteGraphOptions{})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*dg.G.NumEdges()), "ns/link")
}

// BenchmarkTransitionMatrix builds the matrix on every iteration: the
// cache is dropped first, or it would time the memoized return.
func BenchmarkTransitionMatrix(b *testing.B) {
	g := webgen.Generate(webgen.Default()).Graph.G
	g.Dedupe()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.DropTransition(g)
		g.TransitionMatrix()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.NumEdges()), "ns/link")
}

// BenchmarkLocalSubgraph is the §3.1 split by the link: extracting the
// largest site of the default generated web, and one pass over all its
// sites — the preprocessing a Ranker's Prepare pays. ns/link counts the
// links the extraction keeps.
func BenchmarkLocalSubgraph(b *testing.B) {
	dg := webgen.Generate(webgen.Default()).Graph
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
		b.Run(bc.name, func(b *testing.B) {
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
