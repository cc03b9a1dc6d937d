package graph

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// A walk reads every row into its cursor's one row, so a read that left
// a field as the previous row set it would hand the next row the wrong
// weights — but only when the two rows differ in kind (base, patched or
// appended) or in whether they list links. The tests here walk a web
// whose consecutive rows alternate all of those, through every reader,
// against a map of the edges added.

// edgeModel is a graph as a map from (from, to) to the summed weight.
type edgeModel map[[2]int]float64

func (m edgeModel) add(from, to int, w float64) { m[[2]int{from, to}] += w }

// packedModel reads a graph with no overlay straight from its packed
// columns, not through the accessor.
func packedModel(t *testing.T, what string, g *Digraph) edgeModel {
	t.Helper()
	if len(g.patch) != 0 || len(g.tail) != 0 {
		t.Fatalf("%s: %d patched and %d appended rows, want a packed graph", what, len(g.patch), len(g.tail))
	}
	m := edgeModel{}
	p := g.base
	if p == nil {
		return m
	}
	e, f := 0, 0
	for i := 0; i < p.rows(); i++ {
		for q := p.off[i]; q < p.off[i+1]; q++ {
			w := 1.0
			if e < len(p.pos) && p.pos[e] == q {
				w, e = p.w[e], e+1
			}
			to := i + int(p.to[q])
			if f < len(p.farPos) && p.farPos[f] == q {
				to, f = int(p.farTo[f]), f+1
			}
			m.add(i, to, w)
		}
	}
	return m
}

// denseTransition is the transition matrix of the n-node graph m ought
// to be. Its weights are multiples of 1/4, so every sum is exact.
func (m edgeModel) denseTransition(n int) [][]float64 {
	want, total := make([][]float64, n), make([]float64, n)
	for i := range want {
		want[i] = make([]float64, n)
	}
	for k, w := range m {
		want[k[0]][k[1]] += w
		total[k[0]] += w
	}
	for k := range m {
		want[k[0]][k[1]] /= total[k[0]]
	}
	return want
}

// localModel is site s's local subgraph of m, numbered by the roster.
func localModel(dg *DocGraph, m edgeModel, s SiteID) edgeModel {
	local := map[int]int{}
	for i, d := range dg.Sites[s].Docs {
		local[int(d)] = i
	}
	sub := edgeModel{}
	for k, w := range m {
		i, in := local[k[0]]
		j, jn := local[k[1]]
		if in && jn {
			sub.add(i, j, w)
		}
	}
	return sub
}

// mixDocs documents in mixSites sites of consecutive documents: odd rows
// list links and even rows do not, each row's fourth link leaves its site.
const mixDocs, mixSites = 400, 4

// mixedWeb returns a packed web with a few rows rewritten and a document
// appended to each site since, so that reading rows in order — by number
// or by roster — goes from a base row listing links to a patched row
// listing none and back, from a patched row listing links to a base row
// listing none, from the last base row to an appended row listing links,
// and from that to one listing none; and the edges added. spread deals
// the documents to the sites two at a time in turn, so that no site is
// one run and a walk by roster skips rows; the notes on roster places
// below are for the layout of one run a site.
func mixedWeb(t *testing.T, spread bool) (*DocGraph, edgeModel) {
	t.Helper()
	b := NewBuilder()
	for d := 0; d < mixDocs; d++ {
		s := d * mixSites / mixDocs
		if spread {
			s = d / 2 % mixSites
		}
		host := fmt.Sprintf("s%d.example", s)
		b.AddDocInSite(fmt.Sprintf("http://%s/p%d", host, d), host)
	}
	dg := b.Build()
	m := edgeModel{}
	edge := func(from, to int, w float64) {
		dg.G.AddEdge(from, to, w)
		m.add(from, to, w)
	}
	for d := 0; d < mixDocs; d++ {
		for _, off := range []int{1, 3, 17, 51, 150} {
			w := 1.0
			switch {
			case d%2 == 1 && off == 3:
				w = 2
			case d%4 == 1 && off == 17:
				w = 0.5
			}
			edge(d, (d+off)%mixDocs, w)
		}
	}
	dg.G.Dedupe() // every row was rewritten: one new base
	base := dg.G.base
	if base == nil || len(dg.G.patch) != 0 || len(dg.G.tail) != 0 || len(base.pos) == 0 {
		t.Fatal("the web is not one packed base listing links")
	}

	edge(102, 160, 1)    // patched, listing nothing, after a base row listing links
	edge(104, 170, 1.5)  // patched, listing a link, before a base row listing some
	edge(107, 180, 1)    // patched, listing its base row's link counted from 0
	edge(108, 170, 1)    // patched, listing nothing, after 107
	edge(109, 110, 1)    // patched, its link to 110 merged to a listed 2
	edge(200, 250, 1)    // patched, first in its site's roster
	edge(299, 298, 2.25) // patched, last base row of its site, listing two
	for s := 0; s < mixSites; s++ {
		d := int(dg.AddDoc(fmt.Sprintf("http://s%d.example/new", s), SiteID(s)))
		first := s * mixDocs / mixSites
		if s%2 == 0 { // appended, listing a link
			edge(d, first+5, 2.5)
			edge(d, first+6, 1)
		} else { // appended, listing nothing
			edge(d, first+50, 1)
			edge(d, first+51, 1)
		}
	}
	dg.G.Dedupe()
	if dg.G.base != base || len(dg.G.patch) != 7 || len(dg.G.tail) != mixSites {
		t.Fatalf("the overlay repacked or is not 7 patched and %d appended rows", mixSites)
	}
	return dg, m
}

func modelsEqual(t *testing.T, what string, got, want edgeModel) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		for k, w := range want {
			if got[k] != w {
				t.Fatalf("%s: edge %d→%d weighs %g, want %g", what, k[0], k[1], got[k], w)
			}
		}
		for k, w := range got {
			if _, ok := want[k]; !ok {
				t.Fatalf("%s: edge %d→%d weighs %g, want none", what, k[0], k[1], w)
			}
		}
	}
}

// TestReusedRowKeepsNoStaleField runs every reader of the adjacency over
// the mixed web and checks each against the edges added.
func TestReusedRowKeepsNoStaleField(t *testing.T) {
	dg, m := mixedWeb(t, false)
	g := dg.G
	n := g.NumNodes()

	all := edgeModel{}
	g.EachEdgeAll(func(from int, e Edge) { all.add(from, e.To, e.Weight) })
	modelsEqual(t, "EachEdgeAll", all, m)

	each := edgeModel{}
	for i := 0; i < n; i++ {
		var want float64
		g.EachEdge(i, func(e Edge) {
			each.add(i, e.To, e.Weight)
			want += e.Weight
		})
		if got := g.OutWeight(i); got != want {
			t.Fatalf("OutWeight(%d) = %g, its edges weigh %g", i, got, want)
		}
	}
	modelsEqual(t, "EachEdge", each, m)

	listed := 0
	for _, w := range m {
		if w != 1 {
			listed++
		}
	}
	if got := g.numListed(); got != listed {
		t.Fatalf("numListed = %d, the edges list %d", got, listed)
	}

	if err := checkTransition(g.TransitionMatrix(), m.denseTransition(n)); err != nil {
		t.Fatalf("TransitionMatrix: %v", err)
	}

	for s := range dg.Sites {
		sub, _ := dg.LocalSubgraph(SiteID(s))
		modelsEqual(t, fmt.Sprintf("LocalSubgraph(%d)", s), packedModel(t, "LocalSubgraph", sub), localModel(dg, m, SiteID(s)))
	}

	sites := edgeModel{}
	for k, w := range m {
		sites.add(int(dg.SiteOf(DocID(k[0]))), int(dg.SiteOf(DocID(k[1]))), w)
	}
	modelsEqual(t, "DeriveSiteGraph", packedModel(t, "DeriveSiteGraph", DeriveSiteGraph(dg, SiteGraphOptions{}).G), sites)

	var file bytes.Buffer
	if err := EncodeBinary(&file, dg); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBinary(&file)
	if err != nil {
		t.Fatal(err)
	}
	modelsEqual(t, "EncodeBinary", packedModel(t, "DecodeBinary", back.G), m)

	// Rewriting every third row repacks: the repack reads the mix.
	re := g.CloneCOW()
	rm := edgeModel{}
	for k, w := range m {
		rm[k] = w
	}
	for d := 0; d < n; d += 3 {
		re.AddEdge(d, (d+2)%n, 1)
		rm.add(d, (d+2)%n, 1)
	}
	re.Dedupe()
	if re.base == g.base {
		t.Fatal("rewriting every third row did not repack")
	}
	modelsEqual(t, "repack", packedModel(t, "repack", re), rm)

	// Validate sums every row past a bound only huge listed weights
	// pass: two of them in one site overflow it, one does not.
	huge := dg.CloneCOW()
	huge.G.AddEdge(105, 106, 1e308)
	if err := huge.Validate(); err != nil {
		t.Fatalf("one weight of 1e308: %v", err)
	}
	huge.G.AddEdge(107, 108, 1e308)
	if err := huge.Validate(); err == nil || !strings.Contains(err.Error(), "site 1 has out-weight") {
		t.Fatalf("two weights of 1e308 in site 1: Validate = %v", err)
	}
}

// TestSpreadSitesReadTheMix: sites interleaved with each other have the
// extraction search each roster and read its rows out of turn; each
// site's subgraph is still the edges added between its documents, and
// the SiteGraph the sums of the edges between sites.
func TestSpreadSitesReadTheMix(t *testing.T) {
	dg, m := mixedWeb(t, true)
	if err := dg.Validate(); err != nil {
		t.Fatal(err)
	}
	for s := range dg.Sites {
		sub, _ := dg.LocalSubgraph(SiteID(s))
		modelsEqual(t, fmt.Sprintf("LocalSubgraph(%d)", s), packedModel(t, "LocalSubgraph", sub), localModel(dg, m, SiteID(s)))
	}
	siteOf := func(d int) int {
		if d >= mixDocs {
			return d - mixDocs // appended, one a site in site order
		}
		return d / 2 % mixSites
	}
	sites := edgeModel{}
	for k, w := range m {
		sites.add(siteOf(k[0]), siteOf(k[1]), w)
	}
	modelsEqual(t, "DeriveSiteGraph", packedModel(t, "DeriveSiteGraph", DeriveSiteGraph(dg, SiteGraphOptions{}).G), sites)
}
