package graph

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"lmmrank/internal/matrix"
)

// rowBuiltTransition is the row-major construction TransitionMatrix used
// before it built the pull view directly: rows straight from the sorted
// adjacency, transposed by matrix.NewCSRFromSorted. Kept as the
// reference the pull-built matrix must reproduce.
func rowBuiltTransition(g *Digraph) *matrix.CSR {
	g.Dedupe()
	n := g.NumNodes()
	rowPtr := make([]int, n+1)
	var colIdx []int
	var val []float64
	for i := 0; i < n; i++ {
		if total := g.OutWeight(i); total > 0 {
			g.EachEdge(i, func(e Edge) {
				colIdx = append(colIdx, e.To)
				val = append(val, e.Weight/total)
			})
		}
		rowPtr[i+1] = len(colIdx)
	}
	return matrix.NewCSRFromSorted(n, rowPtr, colIdx, val)
}

// TestTransitionMatrixPullBuiltMatchesRowBuilt: building the pull view
// straight from the adjacency stores the same entries and multiplies
// bit-identically to building rows and transposing them — over dangling
// rows, self-loops, duplicate edges, a single node and all-empty rows.
func TestTransitionMatrixPullBuiltMatchesRowBuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	shapes := map[string]*Digraph{
		"single node":           NewDigraph(1),
		"single node self-loop": NewDigraph(1),
		"all rows empty":        NewDigraph(4),
		"one edge":              NewDigraph(3),
	}
	shapes["single node self-loop"].AddLink(0, 0)
	shapes["one edge"].AddLink(2, 0)
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(40) + 2
		g := NewDigraph(n)
		for e := rng.Intn(5 * n); e > 0; e-- {
			from := rng.Intn(n)
			if from%5 == 0 {
				continue // leave some rows dangling
			}
			to := rng.Intn(n)
			if e%7 == 0 {
				to = from // self-loops
			}
			g.AddEdge(from, to, float64(rng.Intn(3)+1))
			if e%4 == 0 {
				g.AddEdge(from, to, 1) // duplicate edges
			}
		}
		shapes[fmt.Sprintf("random %d", trial)] = g
	}
	for name, g := range shapes {
		got, want := g.TransitionMatrix(), rowBuiltTransition(g)
		n := g.NumNodes()
		if got.Order() != want.Order() || got.NNZ() != want.NNZ() {
			t.Fatalf("%s: order/nnz %d/%d vs %d/%d", name, got.Order(), got.NNZ(), want.Order(), want.NNZ())
		}
		type entry struct {
			col int
			val float64
		}
		for i := 0; i < n; i++ {
			var ge, we []entry
			got.Row(i, func(c int, v float64) { ge = append(ge, entry{c, v}) })
			want.Row(i, func(c int, v float64) { we = append(we, entry{c, v}) })
			if len(ge) != len(we) {
				t.Fatalf("%s: row %d has %d entries, want %d", name, i, len(ge), len(we))
			}
			for k := range ge {
				if ge[k] != we[k] {
					t.Fatalf("%s: row %d entry %d = %+v, want %+v", name, i, k, ge[k], we[k])
				}
			}
		}
		if gd, wd := got.DanglingRows(), want.DanglingRows(); fmt.Sprint(gd) != fmt.Sprint(wd) {
			t.Fatalf("%s: dangling rows %v, want %v", name, gd, wd)
		}
		x, v := matrix.NewVector(n), matrix.NewVector(n)
		for i := range x {
			x[i], v[i] = rng.Float64(), rng.Float64()
		}
		a, b := matrix.NewVector(n), matrix.NewVector(n)
		got.MulVecLeft(a, x)
		want.MulVecLeft(b, x)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("%s: (x'M)[%d] = %g pull-built, %g row-built", name, j, a[j], b[j])
			}
		}
		if sa, sb := got.MulVecLeftDamped(a, x, 0.85, 0.1, v), want.MulVecLeftDamped(b, x, 0.85, 0.1, v); sa != sb {
			t.Fatalf("%s: damped sweep sums %g vs %g", name, sa, sb)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("%s: damped dst[%d] = %g pull-built, %g row-built", name, j, a[j], b[j])
			}
		}
	}
}

// appendDeriveSiteGraph is the derivation DeriveSiteGraph replaced (one
// AddEdge per document link, then Dedupe), kept as its reference.
func appendDeriveSiteGraph(dg *DocGraph, opts SiteGraphOptions) *Digraph {
	g := NewDigraph(dg.NumSites())
	dg.G.EachEdgeAll(func(from int, e Edge) {
		sFrom, sTo := dg.Docs[from].Site, dg.Docs[e.To].Site
		if opts.DropSelfLoops && sFrom == sTo {
			return
		}
		g.AddEdge(int(sFrom), int(sTo), e.Weight)
	})
	g.Dedupe()
	return g
}

// exactRows fails unless every adjacency row of g is exactly as long as
// its content: a row with spare capacity is dead memory every snapshot
// holding the graph keeps alive.
func exactRows(t *testing.T, what string, g *Digraph) {
	t.Helper()
	for i, row := range g.out {
		if cap(row) != len(row) {
			t.Fatalf("%s: row %d has len %d, cap %d", what, i, len(row), cap(row))
		}
	}
}

// churn applies one random batch of edits to dg — new links out of a few
// sites, sometimes a new page in one of them, sometimes a whole new site
// — and returns the sites whose documents or out-links changed (appended
// sites are left out, as the ChangedSites contract allows).
func churn(rng *rand.Rand, dg *DocGraph) []SiteID {
	before := dg.NumSites()
	var changed []SiteID
	for k := rng.Intn(3) + 1; k > 0; k-- {
		s := SiteID(rng.Intn(before))
		changed = append(changed, s)
		docs := dg.Sites[s].Docs
		for e := rng.Intn(4) + 1; e > 0; e-- {
			dg.G.AddLink(int(docs[rng.Intn(len(docs))]), rng.Intn(dg.NumDocs()))
		}
		if rng.Intn(2) == 0 {
			d := DocID(dg.NumDocs())
			dg.Docs = append(dg.Docs, Doc{URL: fmt.Sprintf("%s/new%d", dg.Sites[s].Name, d), Site: s})
			dg.Sites[s].Docs = append(dg.Sites[s].Docs, d)
			dg.G.EnsureNodes(dg.NumDocs())
			dg.G.AddLink(int(d), int(docs[0]))
			dg.G.AddLink(int(docs[0]), int(d))
		}
	}
	if rng.Intn(3) == 0 {
		s := SiteID(dg.NumSites())
		d := DocID(dg.NumDocs())
		dg.Sites = append(dg.Sites, Site{Name: fmt.Sprintf("joined%d.example", s), Docs: []DocID{d}})
		dg.Docs = append(dg.Docs, Doc{URL: fmt.Sprintf("joined%d.example/", s), Site: s})
		dg.G.EnsureNodes(dg.NumDocs())
		// The newcomer links out; nobody links to it yet, so no old
		// site's row changes on its account.
		dg.G.AddLink(int(d), rng.Intn(int(d)))
	}
	dg.G.Dedupe()
	return changed
}

// TestDeriveSiteGraphMatchesAppendReference: the dense-row derivation
// gives the rows the per-link AddEdge + Dedupe one did, at exact length.
func TestDeriveSiteGraphMatchesAppendReference(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 20; trial++ {
		dg := benchDocGraph(rng.Intn(6)+1, rng.Intn(8)+1, rng.Int63())
		for _, opts := range []SiteGraphOptions{{}, {DropSelfLoops: true}} {
			sg := DeriveSiteGraph(dg, opts)
			sameDigraph(t, sg.G, appendDeriveSiteGraph(dg, opts))
			exactRows(t, "DeriveSiteGraph", sg.G)
			for s, site := range dg.Sites {
				if sg.Names[s] != site.Name {
					t.Fatalf("Names[%d] = %q, want %q", s, sg.Names[s], site.Name)
				}
			}
		}
	}
}

// TestRederiveMatchesFullDerive walks random delta histories over COW
// clones, the way Engine.Update does: each step's incrementally derived
// SiteGraph must equal a from-scratch derive of the same graph, clean
// rows must be the previous SiteGraph's own arrays, and no earlier
// version may be disturbed — not even by a later AddEdge into a shared
// row.
func TestRederiveMatchesFullDerive(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, opts := range []SiteGraphOptions{{}, {DropSelfLoops: true}} {
		for trial := 0; trial < 10; trial++ {
			dg := benchDocGraph(rng.Intn(5)+2, rng.Intn(6)+2, rng.Int63())
			sg := DeriveSiteGraph(dg, opts)
			for step := 0; step < 8; step++ {
				work := dg.CloneCOW()
				changed := churn(rng, work)
				next := sg.Rederive(work, opts, changed)
				full := DeriveSiteGraph(work, opts)
				sameDigraph(t, next.G, full.G)
				exactRows(t, "Rederive", next.G)
				if fmt.Sprint(next.Names) != fmt.Sprint(full.Names) {
					t.Fatalf("names %v, want %v", next.Names, full.Names)
				}
				dirty := map[SiteID]bool{}
				for _, s := range changed {
					dirty[s] = true
				}
				for s := 0; s < sg.NumSites(); s++ {
					old, now := sg.G.out[s], next.G.out[s]
					if len(old) == 0 || len(now) == 0 {
						continue
					}
					if shared := &old[0] == &now[0]; shared == dirty[SiteID(s)] {
						t.Fatalf("step %d site %d: shared=%v, dirty=%v", step, s, shared, dirty[SiteID(s)])
					}
				}
				// Writing into the new SiteGraph must copy a shared row out.
				before := sg.G.Clone()
				next.G.AddEdge(0, 0, 1)
				next.G.Dedupe()
				sameDigraph(t, sg.G, before)
				dg, sg = work, sg.Rederive(work, opts, changed)
			}
		}
	}
}

// encodeRaw gob-encodes a hand-built wire form, for payloads EncodeGob
// would never produce.
func encodeRaw(t testing.TB, gg gobGraph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&gg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hostileGobs are the payloads DecodeGob must refuse, with the error
// each must name; they are also FuzzDecodeGob's seeds.
func hostileGobs(t testing.TB) map[string][]byte {
	docs := []Doc{{URL: "a/0", Site: 0}, {URL: "a/1", Site: 0}}
	names := []string{"a"}
	valid := encodeRaw(t, gobGraph{Docs: docs, SiteNames: names,
		From: []int32{0, 1}, To: []int32{1, 0}, Weight: []float64{1, 2}})
	return map[string][]byte{
		"gob decode":           valid[:len(valid)/2],
		"invalid site":         encodeRaw(t, gobGraph{Docs: []Doc{{URL: "a/0", Site: 3}}, SiteNames: names}),
		"edge slices disagree": encodeRaw(t, gobGraph{Docs: docs, SiteNames: names, From: []int32{0, 1}, To: []int32{1}, Weight: []float64{1, 1}}),
		"(0→2) out of range":   encodeRaw(t, gobGraph{Docs: docs, SiteNames: names, From: []int32{0}, To: []int32{2}, Weight: []float64{1}}),
		"(-1→0) out of range":  encodeRaw(t, gobGraph{Docs: docs, SiteNames: names, From: []int32{-1}, To: []int32{0}, Weight: []float64{1}}),
		"invalid weight NaN":   encodeRaw(t, gobGraph{Docs: docs, SiteNames: names, From: []int32{0}, To: []int32{1}, Weight: []float64{math.NaN()}}),
		"invalid weight 0":     encodeRaw(t, gobGraph{Docs: docs, SiteNames: names, From: []int32{0}, To: []int32{1}, Weight: []float64{0}}),
		"invalid weight +Inf":  encodeRaw(t, gobGraph{Docs: docs, SiteNames: names, From: []int32{0}, To: []int32{1}, Weight: []float64{math.Inf(1)}}),
		"edge 1 (1→9)":         encodeRaw(t, gobGraph{Docs: docs, SiteNames: names, From: []int32{0, 1}, To: []int32{1, 9}, Weight: []float64{1, 1}}),
	}
}

func TestDecodeGobRefusesHostilePayloads(t *testing.T) {
	for want, data := range hostileGobs(t) {
		_, err := DecodeGob(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("error %v, want one naming %q", err, want)
		}
	}
}

// TestDecodeGobRowsAreIsolated: the decoded rows are windows of one
// slab, so an append must reallocate its row rather than run into the
// neighbour's — directly after decoding, and on either side of a
// CloneCOW.
func TestDecodeGobRowsAreIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 10; trial++ {
		src := benchDocGraph(rng.Intn(4)+1, rng.Intn(6)+2, rng.Int63())
		// Unmerged duplicates (EncodeGob writes rows as they are) leave
		// the decoded, merged rows shorter than their slab windows.
		for e := src.NumDocs(); e > 0; e-- {
			src.G.AddLink(rng.Intn(src.NumDocs()), rng.Intn(src.NumDocs()))
		}
		var buf bytes.Buffer
		if err := EncodeGob(&buf, src); err != nil {
			t.Fatal(err)
		}
		dg, err := DecodeGob(&buf)
		if err != nil {
			t.Fatal(err)
		}
		same := func(got, want *Digraph) {
			t.Helper()
			got.Dedupe()
			want.Dedupe()
			sameDigraph(t, got, want)
		}
		same(dg.G, src.G)
		n := dg.NumDocs()
		ref := dg.G.Clone()
		for k := 0; k < n; k++ {
			from, to := rng.Intn(n), rng.Intn(n)
			dg.G.AddEdge(from, to, 1)
			ref.AddEdge(from, to, 1)
			same(dg.G, ref)
		}
		cow, refCow := dg.G.CloneCOW(), ref.Clone()
		for k := 0; k < n; k++ {
			from, to := rng.Intn(n), rng.Intn(n)
			if k%2 == 0 {
				cow.AddEdge(from, to, 1)
				refCow.AddEdge(from, to, 1)
			} else {
				dg.G.AddEdge(from, to, 1)
				ref.AddEdge(from, to, 1)
			}
			same(dg.G, ref)
			same(cow, refCow)
		}
	}
}

// TestLocalIndexMatchesLocalSubgraph: the index alone is the index
// LocalSubgraph returns, table and all for a non-ascending roster.
func TestLocalIndexMatchesLocalSubgraph(t *testing.T) {
	dg := benchDocGraph(3, 5, 55)
	dg.Sites[1].Docs[0], dg.Sites[1].Docs[3] = dg.Sites[1].Docs[3], dg.Sites[1].Docs[0]
	for s := range dg.Sites {
		_, want := dg.LocalSubgraph(SiteID(s))
		got := dg.LocalIndex(SiteID(s))
		if (got.table == nil) != (want.table == nil) || (s == 1) != (got.table != nil) {
			t.Fatalf("site %d: table presence differs", s)
		}
		for d := -1; d <= dg.NumDocs(); d++ {
			gi, gok := got.ToLocal(DocID(d))
			wi, wok := want.ToLocal(DocID(d))
			if gi != wi || gok != wok {
				t.Fatalf("site %d: ToLocal(%d) = %d,%v, want %d,%v", s, d, gi, gok, wi, wok)
			}
		}
	}
}
