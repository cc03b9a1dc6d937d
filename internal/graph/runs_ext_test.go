package graph_test

import (
	"testing"

	"lmmrank/internal/graph"
	"lmmrank/internal/webgen"
)

// TestLocalOfMatchesMapReference is the property the site runs owe: on
// generated webs, as built and relaid with their sites interleaved, LocalOf
// names each document's place in its roster and LocalSubgraph is the
// map-built reference extraction, link for link.
func TestLocalOfMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cfg := webgen.Small()
		cfg.Seed = seed
		for _, interleaved := range []bool{false, true} {
			dg := webgen.Generate(cfg).Graph
			if interleaved {
				dg = graph.Interleave(dg)
				if err := dg.Validate(); err != nil {
					t.Fatal(err)
				}
			}
			for s, site := range dg.Sites {
				sub, idx := dg.LocalSubgraph(graph.SiteID(s))
				graph.AssertSameDigraph(t, sub, graph.MapLocalSubgraph(dg, graph.SiteID(s)))
				for i, d := range site.Docs {
					if got := dg.LocalOf(d); got != i || idx.ToGlobal[i] != d || dg.SiteOf(d) != graph.SiteID(s) {
						t.Fatalf("seed %d interleaved=%v site %d: LocalOf(%d) = %d in site %d, ToGlobal[%d] = %d, want %d and %d",
							seed, interleaved, s, d, got, dg.SiteOf(d), i, idx.ToGlobal[i], i, d)
					}
				}
			}
		}
	}
}
