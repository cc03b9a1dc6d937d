package graph_test

import (
	"reflect"
	"testing"

	"lmmrank"
	"lmmrank/internal/graph"
)

// TestListedWeightWidths: a packed base holds its listed weights in 2
// bytes when every one is a whole link count up to 65 535 — the merged
// duplicate links of a crawl — and as float64 otherwise: one weight of
// 0.5, or one of 70 000, keeps them all float64. The width changes
// nothing a reader sees: a web decoded from its file walks, builds its
// transition matrix, hands out its columns and ranks to the bits of the
// web it was written from — and a web of link counts does the same with
// its weights held as float64, the form it is not stored in.
func TestListedWeightWidths(t *testing.T) {
	for _, tc := range []struct {
		name  string
		w     float64
		bytes int
	}{{"link counts", 3, 2}, {"a weight of 0.5", 0.5, 8}, {"a weight above 65 535", 70000, 8}} {
		t.Run(tc.name, func(t *testing.T) {
			src := graph.BenchDocGraph(8, 30, 91)
			src.G.AddEdge(0, 1, tc.w) // a link inside site 0
			src.G.Dedupe()
			back := decode(t, encode(t, src))
			if got := graph.ListedBytes(back.G); got != tc.bytes {
				t.Fatalf("the decoded base holds its listed weights in %d bytes, want %d", got, tc.bytes)
			}
			if sub, _ := back.LocalSubgraph(0); graph.ListedBytes(sub) != tc.bytes {
				t.Fatalf("site 0's local subgraph holds its listed weights in %d bytes, want %d", graph.ListedBytes(sub), tc.bytes)
			}
			sameReadings(t, "decoded", src, back)
			if tc.bytes == 2 {
				wide := back.CloneCOW()
				wide.G = graph.WidenListed(back.G)
				sameReadings(t, "widened", src, wide)
			}
		})
	}
}

// sameReadings fails unless got reads as want does, bit for bit: the
// edges of the web, of every site's local subgraph and of the SiteGraph,
// the web's transition matrix and columns, and LayeredDocRank's ranks.
func sameReadings(t *testing.T, what string, want, got *graph.DocGraph) {
	t.Helper()
	edges := func(g *graph.Digraph) [][]graph.Edge {
		rows := make([][]graph.Edge, g.NumNodes())
		g.EachEdgeAll(func(from int, e graph.Edge) { rows[from] = append(rows[from], e) })
		return rows
	}
	if !reflect.DeepEqual(edges(got.G), edges(want.G)) {
		t.Errorf("%s: the web's edges differ", what)
	}
	for s := range want.Sites {
		a, _ := want.LocalSubgraph(graph.SiteID(s))
		b, _ := got.LocalSubgraph(graph.SiteID(s))
		if !reflect.DeepEqual(edges(b), edges(a)) || !reflect.DeepEqual(b.TransitionMatrix(), a.TransitionMatrix()) {
			t.Errorf("%s: site %d's local subgraph differs", what, s)
		}
	}
	sg := func(dg *graph.DocGraph) [][]graph.Edge {
		return edges(graph.DeriveSiteGraph(dg, graph.SiteGraphOptions{}).G)
	}
	if !reflect.DeepEqual(sg(got), sg(want)) {
		t.Errorf("%s: the SiteGraph's edges differ", what)
	}
	if !reflect.DeepEqual(got.G.TransitionMatrix(), want.G.TransitionMatrix()) {
		t.Errorf("%s: the transition matrix differs", what)
	}
	if !reflect.DeepEqual(got.G.Columns(), want.G.Columns()) {
		t.Errorf("%s: the columns differ", what)
	}
	a, err := lmmrank.LayeredDocRank(want, lmmrank.WebConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := lmmrank.LayeredDocRank(got, lmmrank.WebConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.DocRank, a.DocRank) || !reflect.DeepEqual(b.SiteRank, a.SiteRank) {
		t.Errorf("%s: LayeredDocRank's ranks differ", what)
	}
}
