package graph

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// canonical fails unless g's listed links are in their one form: in the
// base and in each overlay row, positions strictly ascending and below
// the link count, one weight each, and every listed weight positive,
// finite and other than 1 — so a link weighs 1 exactly when it is not
// listed — and the base's weights at the width their values pick: 2
// bytes when every one is matrix.NarrowValue, float64 otherwise.
func canonical(t *testing.T, what string, g *Digraph) {
	t.Helper()
	check := func(where string, pos []uint32, w []float64, links int) {
		t.Helper()
		if len(pos) != len(w) {
			t.Fatalf("%s: %s lists %d positions beside %d weights", what, where, len(pos), len(w))
		}
		for e, q := range pos {
			if int(q) >= links || e > 0 && q <= pos[e-1] {
				t.Fatalf("%s: %s lists position %d after %v, of %d links", what, where, q, pos[:e], links)
			}
			if x := w[e]; x == 1 || !(x > 0) || math.IsInf(x, 1) {
				t.Fatalf("%s: %s lists link %d at weight %g", what, where, q, x)
			}
		}
	}
	if p := g.base; p != nil {
		check("the base", p.pos, p.weights(), len(p.to))
		if narrow := allNarrow(p.weights()); narrow != (p.w16 != nil) || narrow != (p.w == nil) {
			t.Fatalf("%s: the base's weights %v are stored as %d float64s and %d uint16s", what, p.weights(), len(p.w), len(p.w16))
		}
	}
	for i, r := range g.patch {
		check(fmt.Sprintf("patched row %d", i), r.pos, r.w, len(r.to))
	}
	for i, r := range g.tail {
		check(fmt.Sprintf("appended row %d", i), r.pos, r.w, len(r.to))
	}
}

// addToModel adds a link of weight w to rows, sorted and merged rows
// kept on the side, without writing any row another model shares.
func addToModel(rows [][]Edge, from, to int, w float64) {
	row := rows[from]
	k := sort.Search(len(row), func(k int) bool { return row[k].To >= to })
	if k < len(row) && row[k].To == to {
		row = slices.Clone(row)
		row[k].Weight += w
	} else {
		row = slices.Insert(slices.Clip(row), k, Edge{To: to, Weight: w})
	}
	rows[from] = row
}

// TestListedWeightsAreNeverOne: every writer — AddEdge, Dedupe's merge,
// the repack, Rederive, LocalSubgraph and the decoder's merge — lists
// exactly the links whose weight is not 1, so every reader sees the
// weight that was added: halves merged to 1 leave nothing listed, a link
// added onto a listed 2 reads 3, and edits never touch the listed
// columns a COW relative reads.
func TestListedWeightsAreNeverOne(t *testing.T) {
	// A base large enough that a few rewritten rows stay in the overlay,
	// with links its builder merged into weights other than 1.
	g := benchDocGraph(10, 40, 81).G
	base, n := g.base, g.NumNodes()
	canonical(t, "Builder", g)
	if len(base.pos) == 0 {
		t.Fatal("the web lists no link: nothing is exercised")
	}
	// A base row with a listed link in it.
	q := base.pos[len(base.pos)/2]
	i := sort.Search(n, func(i int) bool { return base.off[i+1] > q })
	g.EnsureNodes(n + 1)
	model := rowsOf(g)
	kept, keptRows := g.CloneCOW(), rowsOf(g)
	wantPos, wantW := slices.Clone(base.pos), slices.Clone(base.w16)
	if base.w16 == nil {
		t.Fatal("the Builder's link counts are not stored in 2 bytes")
	}

	edit := func(what string, from, to int, w float64) {
		t.Helper()
		g.AddEdge(from, to, w)
		addToModel(model, from, to, w)
		canonical(t, what, g)
	}
	for _, from := range []int{i, n} { // a base row and an appended one
		edit("AddEdge ½", from, n, 0.5)
		edit("AddEdge ½", from, n, 0.5)
	}
	edit("AddLink onto a listed weight", i, int(base.wide()[q]), 1)
	edit("AddEdge 2", n, 0, 2)
	edit("AddEdge 2.5 onto a base row", 3, n, 2.5)
	g.Dedupe()
	canonical(t, "Dedupe", g)
	edit("AddLink onto a listed 2", n, 0, 1)
	g.Dedupe()
	canonical(t, "Dedupe", g)
	if g.base != base {
		t.Fatal("a few rewritten rows repacked the base: the overlay is not exercised")
	}
	if !reflect.DeepEqual(rowsOf(g), model) {
		t.Fatal("the rows read back are not the weights added")
	}
	if !slices.Equal(base.pos, wantPos) || !slices.Equal(base.w16, wantW) {
		t.Fatal("an edit wrote the listed columns a COW relative reads")
	}
	if !reflect.DeepEqual(rowsOf(kept), keptRows) {
		t.Fatal("an edit changed a COW relative taken before it")
	}
	canonical(t, "the COW relative", kept)

	// Rewriting half the rows repacks, and every listed link moves.
	for from := 0; from < n; from += 2 {
		edit("AddEdge 1.5", from, n, 1.5)
	}
	g.Dedupe()
	if g.base == base {
		t.Fatal("half the rows rewritten did not repack the base")
	}
	canonical(t, "repack", g)
	if !reflect.DeepEqual(rowsOf(g), model) {
		t.Fatal("the repacked rows are not the weights added")
	}
	if g.base.w == nil {
		t.Fatal("a repack of weights of 1.5 stored them in 2 bytes")
	}

	// The derived graphs, over a web of quarter weights: a SiteLink sum of
	// 1 is not listed, and a local subgraph keeps its parent's weights,
	// in sites interleaved with each other too.
	rng := rand.New(rand.NewSource(82))
	dg := interleave(benchDocGraph(6, 8, 83))
	nd := dg.NumDocs()
	for k := 0; k < nd; k++ {
		dg.G.AddEdge(rng.Intn(nd), rng.Intn(nd), float64(rng.Intn(7)+1)/4)
	}
	sg := DeriveSiteGraph(dg, SiteGraphOptions{})
	canonical(t, "DeriveSiteGraph", sg.G)
	for s := range dg.Sites {
		sub, _ := dg.LocalSubgraph(SiteID(s))
		canonical(t, fmt.Sprintf("LocalSubgraph(%d)", s), sub)
		sameDigraph(t, sub, mapLocalSubgraph(dg, SiteID(s)))
	}
	work := dg.CloneCOW()
	changed := churn(rng, work)
	canonical(t, "Rederive", sg.Rederive(work, SiteGraphOptions{}, changed).G)

	// The decoder merges rows written unmerged and lists the sums afresh.
	src := benchDocGraph(3, 6, 84)
	last := src.NumDocs() - 1
	src.G.AddEdge(0, last, 0.5)
	src.G.AddEdge(0, last, 0.5)
	src.G.AddEdge(1, last, 2.5)
	var file bytes.Buffer
	if err := EncodeBinary(&file, src); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBinary(&file)
	if err != nil {
		t.Fatal(err)
	}
	canonical(t, "DecodeBinary", back.G)
	src.G.Dedupe()
	sameDigraph(t, back.G, src.G)

	// A COW clone of a base of link counts, given a weight of ½ and then
	// rows enough to repack: its new base holds float64 weights, and the
	// parent's 2-byte one is as it was.
	parent := benchDocGraph(10, 40, 85).G
	parentW := slices.Clone(parent.base.w16)
	clone := parent.CloneCOW()
	cloneModel := rowsOf(clone)
	addTo := func(from, to int, w float64) {
		clone.AddEdge(from, to, w)
		addToModel(cloneModel, from, to, w)
	}
	addTo(5, 6, 0.5)
	for from := 0; from < clone.NumNodes(); from += 2 {
		addTo(from, 1, 1)
	}
	clone.Dedupe()
	if clone.base == parent.base || clone.base.w == nil {
		t.Fatal("the clone's ½ did not repack into a float64 base")
	}
	canonical(t, "the clone's repack", clone)
	if !reflect.DeepEqual(rowsOf(clone), cloneModel) {
		t.Fatal("the clone's repacked rows are not the weights added")
	}
	if parent.base.w != nil || !slices.Equal(parent.base.w16, parentW) {
		t.Fatal("the clone's repack wrote the parent's 2-byte weights")
	}
}

// TestOutWeightsStayFinite: an out-weight divides its row in the
// transition matrix, so it must be finite. AddEdge panics on a weight of
// +Inf; finite weights whose sum is not — one link given twice, two links
// of a document, the documents of a site — are refused wherever a graph
// comes in or goes out (ReadText here, EncodeBinary below, DecodeBinary
// in hostileFiles), naming the document or the site.
func TestOutWeightsStayFinite(t *testing.T) {
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "+Inf") {
				t.Errorf("AddEdge(+Inf) recovered %v, want a panic naming +Inf", r)
			}
		}()
		NewDigraph(2).AddEdge(0, 1, math.Inf(1))
	}()

	huge := strconv.FormatFloat(math.MaxFloat64, 'g', -1, 64)
	for _, tc := range []struct{ name, edges, want string }{
		{"one link twice", "edge 0 1 H\nedge 0 1 H\n", "doc 0 has out-weight +Inf"},
		{"two links of a document", "edge 1 0 H\nedge 1 1 H\n", "doc 1 has out-weight +Inf"},
		{"two documents of a site", "edge 0 1 H\nedge 1 0 H\n", "site 0 has out-weight +Inf"},
		{"a weight of +Inf", "edge 0 1 +Inf\n", "bad edge weight"},
	} {
		text := "site 0 a\ndoc 0 0 a/0\ndoc 1 0 a/1\n" + strings.ReplaceAll(tc.edges, "H", huge)
		if _, err := ReadText(strings.NewReader(text)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ReadText err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}

	dg := &DocGraph{G: NewDigraph(0), Sites: []Site{{Name: "a"}}}
	dg.AddDoc("a/0", 0)
	dg.AddDoc("a/1", 0)
	dg.G.AddEdge(0, 1, math.MaxFloat64)
	dg.G.AddEdge(1, 0, math.MaxFloat64)
	if err := EncodeBinary(io.Discard, dg); err == nil || !strings.Contains(err.Error(), "site 0 has out-weight +Inf") {
		t.Errorf("EncodeBinary err = %v, want one naming site 0's out-weight", err)
	}
}
