package graph_test

import (
	"math/rand"
	"testing"

	"lmmrank/internal/graph"
	"lmmrank/internal/webgen"
)

// TestLocalOfMatchesMapReference is the property the local column owes:
// on generated webs, as built and with every roster shuffled by hand,
// LocalOf names each document's place in its roster and LocalSubgraph is
// the map-built reference extraction, link for link.
func TestLocalOfMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cfg := webgen.Small()
		cfg.Seed = seed
		for _, shuffled := range []bool{false, true} {
			dg := webgen.Generate(cfg).Graph
			if shuffled {
				rng := rand.New(rand.NewSource(seed))
				for _, site := range dg.Sites {
					rng.Shuffle(len(site.Docs), func(i, j int) { site.Docs[i], site.Docs[j] = site.Docs[j], site.Docs[i] })
				}
				if err := dg.Validate(); err != nil {
					t.Fatal(err)
				}
			}
			for s, site := range dg.Sites {
				sub, idx := dg.LocalSubgraph(graph.SiteID(s))
				graph.AssertSameDigraph(t, sub, graph.MapLocalSubgraph(dg, graph.SiteID(s)))
				for i, d := range site.Docs {
					if got := dg.LocalOf(d); got != i || idx.ToGlobal[i] != d {
						t.Fatalf("seed %d shuffled=%v site %d: LocalOf(%d) = %d, ToGlobal[%d] = %d, want %d and %d",
							seed, shuffled, s, d, got, i, idx.ToGlobal[i], i, d)
					}
				}
			}
		}
	}
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
