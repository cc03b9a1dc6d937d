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
