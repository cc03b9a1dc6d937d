package graph

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"lmmrank/internal/matrix"
)

// A base link is its target's distance from its source, 2 bytes; a link
// farther than an int16 reaches is listed apart, position and target.
// The webs here put links on both sides of that edge, in rows of every
// mix — all far, far and listed, near and listed — and check every reader
// and every writer against the edges added, and against the same graph
// built from its 4-byte columns.

// farGap is a distance past the 2-byte reach.
const farGap = 40000

// farFile is a valid graph file of one site of 32 770 documents whose
// links sit on both sides of the 2-byte reach, one of them far and
// listed, with its first row reversed when disorder is set (DecodeBinary
// sorts it).
func farFile(disorder bool) []byte {
	const nd = 32770
	f := rawFile{names: []string{"a"}, sites: make([]uint32, nd), urls: make([]string, nd), degrees: make([]uint32, nd)}
	rows := map[int][]uint32{0: {1, 32767, 32768}, 1: {32769}, 32768: {0}, 32769: {0, 1}}
	for _, d := range []int{0, 1, 32768, 32769} {
		row := rows[d]
		if disorder && d == 0 {
			slices.Reverse(row)
		}
		f.degrees[d] = uint32(len(row))
		f.targets = append(f.targets, row...)
	}
	f.listed, f.weights = []uint32{3}, []float64{2} // row 1's far link
	return f.bytes()
}

// farEdge is one AddEdge.
type farEdge struct {
	from, to int
	w        float64
}

// farWeb returns a web of sites of consecutive documents, sizes[s] of
// them in site s, with the edges added and deduplicated, and their model.
func farWeb(t *testing.T, sizes []int, edges []farEdge) (*DocGraph, edgeModel) {
	t.Helper()
	dg := &DocGraph{G: NewDigraph(0)}
	for s, n := range sizes {
		dg.Sites = append(dg.Sites, Site{Name: fmt.Sprintf("s%d.example", s)})
		for d := 0; d < n; d++ {
			dg.AddDoc(fmt.Sprintf("http://s%d.example/%d", s, d), SiteID(s))
		}
	}
	m := edgeModel{}
	for _, e := range edges {
		dg.G.AddEdge(e.from, e.to, e.w)
		m.add(e.from, e.to, e.w)
	}
	dg.G.Dedupe()
	if err := dg.Validate(); err != nil {
		t.Fatal(err)
	}
	return dg, m
}

// isFar reports whether a link from i to j is too long for 2 bytes.
func isFar(i, j int) bool { return j-i > 32767 || j-i < -32768 }

// modelColumns is the model's graph of n nodes as 4-byte columns, rows
// sorted: what Columns must hand out.
func modelColumns(m edgeModel, n int) Columns {
	c := Columns{Degrees: make([]uint32, n), Targets: []uint32{}, ListedPos: []uint32{}, ListedW: []float64{}}
	keys := slices.SortedFunc(maps.Keys(m), func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	for _, k := range keys {
		c.Degrees[k[0]]++
		if w := m[k]; w != 1 {
			c.ListedPos, c.ListedW = append(c.ListedPos, uint32(len(c.Targets))), append(c.ListedW, w)
		}
		c.Targets = append(c.Targets, uint32(k[1]))
	}
	return c
}

// siteModel is the SiteGraph of m over dg's sites.
func siteModel(dg *DocGraph, m edgeModel) edgeModel {
	sites := edgeModel{}
	for k, w := range m {
		sites.add(int(dg.SiteOf(DocID(k[0]))), int(dg.SiteOf(DocID(k[1]))), w)
	}
	return sites
}

// eachEdgeModel reads g through EachEdgeAll.
func eachEdgeModel(g *Digraph) edgeModel {
	m := edgeModel{}
	g.EachEdgeAll(func(from int, e Edge) { m.add(from, e.To, e.Weight) })
	return m
}

// checkTransitionSparse checks a transition matrix of n nodes entry by
// entry against the model, with no dense matrix: a web past 32 768 nodes
// has no dense one to spare.
func checkTransitionSparse(t *testing.T, what string, tm *matrix.CSR, m edgeModel, n int) {
	t.Helper()
	total := make([]float64, n)
	for k, w := range m {
		total[k[0]] += w
	}
	for k, w := range m {
		if got := tm.At(k[0], k[1]); !withinULP(got, w/total[k[0]]) {
			t.Fatalf("%s: TransitionMatrix At(%d,%d) = %v, want %v", what, k[0], k[1], got, w/total[k[0]])
		}
	}
	if tm.Order() != n || tm.NNZ() != len(m) {
		t.Fatalf("%s: TransitionMatrix of order %d with %d entries, want %d and %d", what, tm.Order(), tm.NNZ(), n, len(m))
	}
}

// encodeWeb writes dg as a graph file.
func encodeWeb(t *testing.T, dg *DocGraph) []byte {
	t.Helper()
	var file bytes.Buffer
	if err := EncodeBinary(&file, dg); err != nil {
		t.Fatal(err)
	}
	return file.Bytes()
}

// checkFarReaders runs every reader of dg against the model m and
// against the same web over the graph built from its 4-byte columns:
// EachEdgeAll, TransitionMatrix, LocalSubgraph, DeriveSiteGraph, Columns
// and the bytes EncodeBinary writes, and DecodeBinary reading them back.
func checkFarReaders(t *testing.T, what string, dg *DocGraph, m edgeModel) {
	t.Helper()
	g, n := dg.G, dg.NumDocs()
	canonical(t, what, g)
	modelsEqual(t, what+": EachEdgeAll", eachEdgeModel(g), m)

	want := modelColumns(m, n)
	if got := g.Columns(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Columns are not the 4-byte columns of the edges added", what)
	}
	ref, err := FromColumns(modelColumns(m, n))
	if err != nil {
		t.Fatalf("%s: FromColumns: %v", what, err)
	}
	tm := g.TransitionMatrix()
	if !reflect.DeepEqual(tm, ref.TransitionMatrix()) {
		t.Fatalf("%s: TransitionMatrix differs from the one of the graph built from its columns", what)
	}
	checkTransitionSparse(t, what, tm, m, n)

	for s := range dg.Sites {
		sub, ix := dg.LocalSubgraph(SiteID(s))
		local := localModel(dg, m, SiteID(s))
		modelsEqual(t, fmt.Sprintf("%s: LocalSubgraph(%d)", what, s), packedModel(t, "LocalSubgraph", sub), local)
		if !reflect.DeepEqual(sub.Columns(), modelColumns(local, ix.Len())) {
			t.Fatalf("%s: LocalSubgraph(%d)'s columns are not its edges'", what, s)
		}
		exactRows(t, fmt.Sprintf("%s: LocalSubgraph(%d)", what, s), sub)
	}
	sg := DeriveSiteGraph(dg, SiteGraphOptions{})
	modelsEqual(t, what+": DeriveSiteGraph", packedModel(t, "DeriveSiteGraph", sg.G), siteModel(dg, m))

	file := encodeWeb(t, dg)
	refWeb := &DocGraph{G: ref, Sites: dg.Sites, runs: dg.runs, urls: dg.urls, restarts: dg.restarts, docs: dg.docs}
	if !bytes.Equal(file, encodeWeb(t, refWeb)) {
		t.Fatalf("%s: EncodeBinary writes other bytes than for the graph built from its columns", what)
	}
	back, err := DecodeBinary(bytes.NewReader(file))
	if err != nil {
		t.Fatalf("%s: DecodeBinary: %v", what, err)
	}
	modelsEqual(t, what+": DecodeBinary", packedModel(t, "DecodeBinary", back.G), m)
	exactRows(t, what+": DecodeBinary", back.G)
}

// TestFarLinks: links on both sides of the 2-byte reach, in rows all
// far, far and listed, and in a web of more than 65 536 documents, read
// back through every reader as they were added — and so after AddEdge,
// CloneCOW, Clone, a repack and Rederive over the far rows.
func TestFarLinks(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	var big []farEdge
	const bigDocs = 70000 // sites of 40 000, 20 000 and 10 000
	for d := 0; d < bigDocs; d++ {
		site := 0
		if d >= 60000 {
			site = 60000
		} else if d >= 40000 {
			site = 40000
		}
		w := 1.0
		if d%10 == 0 {
			w = 2
		}
		big = append(big,
			farEdge{d, (d + 1) % bigDocs, 1},
			farEdge{d, rng.Intn(bigDocs), w},
			farEdge{d, site + rng.Intn(map[int]int{0: 40000, 40000: 20000, 60000: 10000}[site]), 1})
	}
	for _, tc := range []struct {
		name  string
		sizes []int
		edges []farEdge
	}{
		{"distances at the reach", []int{40000, 10}, []farEdge{
			{0, 32767, 1},     // +32 767: near
			{32768, 0, 1},     // −32 768: near
			{1, 32769, 1},     // +32 768: far
			{32770, 1, 1},     // −32 769: far
			{5, 5, 1},         // a self-loop
			{40005, 0, 1},     // far, into another site
			{40001, 40002, 1}, // near, in a row after far ones
		}},
		{"a row all far", []int{40000, 10}, []farEdge{
			{2, 35000, 1}, {2, 36000, 1}, {2, 39999, 1},
			{3, 4, 1},
			{39999, 2, 1}, {39998, 3, 1}, {39998, 39997, 1},
		}},
		{"far and listed", []int{40000, 10}, []farEdge{
			{4, 38000, 2},
			{4, 38001, 1}, {4, 38001, 1}, // merged to a listed 2
			{4, 5, 3},
			{38000, 4, 0.5},
			{38000, 38001, 1},
			{40009, 0, 2.5},
		}},
		{"more than 65 536 documents", []int{40000, 20000, 10000}, big},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dg, m := farWeb(t, tc.sizes, tc.edges)
			far := 0
			for k := range m {
				if isFar(k[0], k[1]) {
					far++
				}
			}
			if far == 0 || len(dg.G.base.farPos) != far {
				t.Fatalf("the base lists %d far links, the edges have %d", len(dg.G.base.farPos), far)
			}
			checkFarReaders(t, "packed", dg, m)

			// AddEdge over far rows of a COW clone: the parent reads as
			// it was, and both share the base.
			cow, cm := dg.CloneCOW(), maps.Clone(m)
			edit := func(from, to int, w float64) {
				cow.G.AddEdge(from, to, w)
				cm.add(from, to, w)
			}
			for k := range m {
				if isFar(k[0], k[1]) {
					edit(k[0], k[1], 1)                        // a far link merged to a listed weight
					edit(k[0], (k[0]+33000)%dg.NumDocs(), 0.5) // a new far link, listed
					edit(k[0], k[0], 1)                        // a near one
					break
				}
			}
			cow.G.Dedupe()
			if cow.G.base != dg.G.base || len(cow.G.patch) == 0 {
				t.Fatal("the edits repacked the clone: the overlay over far rows is not exercised")
			}
			checkFarReaders(t, "CloneCOW+AddEdge", cow, cm)
			checkFarReaders(t, "the parent after the clone's edits", dg, m)

			// Rederive over the edited far rows is DeriveSiteGraph.
			sg := DeriveSiteGraph(dg, SiteGraphOptions{})
			next := sg.Rederive(cow, SiteGraphOptions{}, cow.ChangedSince(dg))
			modelsEqual(t, "Rederive", eachEdgeModel(next.G), siteModel(cow, cm))

			// Clone copies the far columns: an edit to it is its own.
			deep := dg.G.Clone()
			if p, q := deep.base, dg.G.base; &p.farPos[0] == &q.farPos[0] || &p.farTo[0] == &q.farTo[0] {
				t.Fatal("Clone shares the far columns")
			}
			deep.AddEdge(0, dg.NumDocs()-1, 1)
			dm := maps.Clone(m)
			dm.add(0, dg.NumDocs()-1, 1)
			modelsEqual(t, "Clone+AddEdge", eachEdgeModel(deep), dm)
			modelsEqual(t, "the parent after its deep copy's edit", eachEdgeModel(dg.G), m)

			// Rewriting every third row repacks the far rows.
			re, rm := cow.CloneCOW(), maps.Clone(cm)
			for d := 0; d < re.NumDocs(); d += 3 {
				to := (d + 40000) % re.NumDocs()
				re.G.AddEdge(d, to, 1)
				rm.add(d, to, 1)
			}
			re.G.Dedupe()
			if re.G.base == cow.G.base {
				t.Fatal("rewriting every third row did not repack")
			}
			checkFarReaders(t, "repack", re, rm)
		})
	}
}

// TestDecodeBinaryMergesFarRows: a file whose row out of order holds a
// far link decodes, sorted, to the graph of the one in order, and both
// read back as written.
func TestDecodeBinaryMergesFarRows(t *testing.T) {
	want := edgeModel{}
	for _, e := range []farEdge{{0, 1, 1}, {0, 32767, 1}, {0, 32768, 1}, {1, 32769, 2}, {32768, 0, 1}, {32769, 0, 1}, {32769, 1, 1}} {
		want.add(e.from, e.to, e.w)
	}
	for _, disorder := range []bool{false, true} {
		dg, err := DecodeBinary(bytes.NewReader(farFile(disorder)))
		if err != nil {
			t.Fatalf("out of order %v: %v", disorder, err)
		}
		what := fmt.Sprintf("out of order %v", disorder)
		modelsEqual(t, what, packedModel(t, what, dg.G), want)
		exactRows(t, what, dg.G)
		if got := len(dg.G.base.farPos); got != 3 {
			t.Errorf("%s: %d far links, want 3", what, got)
		}
		if !reflect.DeepEqual(dg.G.Columns(), modelColumns(want, dg.NumDocs())) {
			t.Errorf("%s: the columns are not the links written", what)
		}
	}
}
