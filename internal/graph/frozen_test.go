package graph

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"runtime"
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

// exactRows fails unless the base columns and every overlay row of g are
// exactly as long as their content: spare capacity is dead memory every
// snapshot holding the graph keeps alive, and on an overlay row it is
// room for an append to write into an array a COW relative reads.
func exactRows(t *testing.T, what string, g *Digraph) {
	t.Helper()
	if p := g.base; p != nil && (cap(p.to) != len(p.to) || cap(p.w) != len(p.w) || p.off[p.rows()] != len(p.to)) {
		t.Fatalf("%s: base columns have len %d/%d, cap %d/%d, offsets end at %d",
			what, len(p.to), len(p.w), cap(p.to), cap(p.w), p.off[p.rows()])
	}
	g.eachOverlay(func(r row) row {
		if cap(r.to) != len(r.to) || cap(r.w) != len(r.w) {
			t.Fatalf("%s: an overlay row has len %d/%d, cap %d/%d", what, len(r.to), len(r.w), cap(r.to), cap(r.w))
		}
		return r
	})
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
	identities := 0
	for _, opts := range []SiteGraphOptions{{}, {DropSelfLoops: true}} {
		for trial := 0; trial < 10; trial++ {
			// Every other web has sites enough for its SiteGraph to keep
			// an overlay from step to step; the small ones repack each time.
			sites := rng.Intn(5) + 2
			if trial%2 == 1 {
				sites += 100
			}
			dg := benchDocGraph(sites, rng.Intn(6)+2, rng.Int63())
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
				// A repack moves every row; short of one, clean rows are
				// the previous SiteGraph's own arrays and dirty ones are not.
				for s := 0; s < sg.NumSites() && next.G.base == sg.G.base; s++ {
					if sg.G.degree(s) == 0 || next.G.degree(s) == 0 {
						continue
					}
					if shared := sameArrays(sg.G, next.G, s); shared == dirty[SiteID(s)] {
						t.Fatalf("step %d site %d: shared=%v, dirty=%v", step, s, shared, dirty[SiteID(s)])
					}
					identities++
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
	if identities == 0 {
		t.Error("no step kept its base: the clean-row identity was never checked")
	}
}

// rawFile is a graph file spelled out section by section, for files
// EncodeBinary would never write. The header's five counts are what the
// sections hold unless claim rewrites them, and the checksum is always
// that of the bytes written: what a row breaks is the one thing it names.
type rawFile struct {
	first   byte // byte 0; zero means binaryMagic | binaryVersion
	names   []string
	sites   []uint32
	urls    []string
	degrees []uint32
	targets []uint32
	weights []float64
	claim   func(numSites, numDocs, numEdges, nameBytes, urlBytes *uint64)
}

func (f rawFile) bytes() []byte {
	first := f.first
	if first == 0 {
		first = binaryMagic | binaryVersion
	}
	var nameBytes, urlBytes uint64
	for _, s := range f.names {
		nameBytes += uint64(len(s))
	}
	for _, s := range f.urls {
		urlBytes += uint64(len(s))
	}
	ns, nd, ne := uint64(len(f.names)), uint64(len(f.sites)), uint64(len(f.targets))
	if f.claim != nil {
		f.claim(&ns, &nd, &ne, &nameBytes, &urlBytes)
	}
	b := []byte{first}
	for _, v := range []uint64{ns, nd, ne, nameBytes, urlBytes} {
		b = le.AppendUint64(b, v)
	}
	text := func(ss []string) {
		for _, s := range ss {
			b = le.AppendUint32(b, uint32(len(s)))
		}
		b = append(b, strings.Join(ss, "")...)
	}
	column := func(vs []uint32) {
		for _, v := range vs {
			b = le.AppendUint32(b, v)
		}
	}
	text(f.names)
	column(f.sites)
	text(f.urls)
	column(f.degrees)
	column(f.targets)
	for _, w := range f.weights {
		b = le.AppendUint64(b, math.Float64bits(w))
	}
	return le.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// twoDocFile is a valid file of one site, two documents and the links
// 0→1 and 1→0; edit alters a copy of it.
func twoDocFile(edit func(*rawFile)) []byte {
	f := rawFile{
		names: []string{"a"}, sites: []uint32{0, 0}, urls: []string{"a/0", "a/1"},
		degrees: []uint32{1, 1}, targets: []uint32{1, 0}, weights: []float64{1, 2},
	}
	if edit != nil {
		edit(&f)
	}
	return f.bytes()
}

// hostileFiles are the files DecodeBinary must refuse, with the error
// each must name; they are also FuzzDecodeBinary's seeds.
func hostileFiles() map[string][]byte {
	weight := func(w float64) []byte {
		return twoDocFile(func(f *rawFile) { f.weights[0] = w })
	}
	valid := twoDocFile(nil)
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-5] ^= 0x01 // the last weight's top byte: 2 becomes another finite positive
	return map[string][]byte{
		// The checks the gob decoder made, as this format can spell them.
		"edge weights: unexpected EOF": valid[:len(valid)-9],
		"invalid site 3":               twoDocFile(func(f *rawFile) { f.sites[1] = 3 }),
		"out-degrees disagree":         twoDocFile(func(f *rawFile) { f.degrees[1] = 2 }),
		"(0→2) out of range":           twoDocFile(func(f *rawFile) { f.targets[0] = 2 }),
		"(0→4294967295) out of range":  twoDocFile(func(f *rawFile) { f.targets[0] = math.MaxUint32 }),
		"invalid weight NaN":           weight(math.NaN()),
		"invalid weight 0":             weight(0),
		"invalid weight -1":            weight(-1),
		"invalid weight +Inf":          weight(math.Inf(1)),
		"edge 1 (1→9)":                 twoDocFile(func(f *rawFile) { f.targets[1] = 9 }),
		// What a file can get wrong that a gob message could not.
		"bad magic 0xb0":        twoDocFile(func(f *rawFile) { f.first = 0xB0 | binaryVersion }),
		"bad magic 0x70":        twoDocFile(func(f *rawFile) { f.first = 's' }),
		"version 2, this build": twoDocFile(func(f *rawFile) { f.first = binaryMagic | 2 }),
		"checksum mismatch":     flipped,
		"site name lengths disagree": twoDocFile(func(f *rawFile) {
			f.claim = func(_, _, _, nameBytes, _ *uint64) { *nameBytes = 5 }
		}),
		"URL lengths disagree": twoDocFile(func(f *rawFile) {
			f.claim = func(_, _, _, _, urlBytes *uint64) { *urlBytes = 4 }
		}),
		"numDocs = 4294967296, more than": rawFile{claim: func(_, nd, _, _, _ *uint64) { *nd = 1 << 32 }}.bytes()[:binaryHeaderLen],
		"document sites: unexpected EOF":  rawFile{claim: func(_, nd, _, _, _ *uint64) { *nd = 1<<32 - 1 }}.bytes()[:binaryHeaderLen],
		"numEdges is 1099511627776":       rawFile{claim: func(_, _, ne, _, _ *uint64) { *ne = 1 << 40 }}.bytes()[:binaryHeaderLen],
		"edge targets: unexpected EOF": twoDocFile(func(f *rawFile) {
			f.degrees[0], f.degrees[1] = math.MaxUint32, math.MaxUint32
			f.claim = func(_, _, ne, _, _ *uint64) { *ne = 2 * math.MaxUint32 }
		}),
		"numSites = 18446744073709551615, more than": rawFile{claim: func(ns, _, _, _, _ *uint64) { *ns = math.MaxUint64 }}.bytes()[:binaryHeaderLen],
	}
}

func TestDecodeBinaryRefusesHostileFiles(t *testing.T) {
	for want, data := range hostileFiles() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeBinary(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("error %v, want one naming %q", err, want)
		}
		// A count is believed only as far as its bytes have arrived.
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%q: refusing a %d-byte file allocated %d bytes", want, len(data), got)
		}
	}
}

// TestDecodeBinaryRefusesEveryTruncation: a file cut anywhere — inside
// any section, on any boundary — is an unexpected EOF, and the whole
// file is read to its last byte and not one past it.
func TestDecodeBinaryRefusesEveryTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, buildTinyWeb(t)); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	for n := 0; n < len(file); n++ {
		if _, err := DecodeBinary(bytes.NewReader(file[:n])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("a file cut to %d of %d bytes: err = %v, want io.ErrUnexpectedEOF", n, len(file), err)
		}
	}
	r := bytes.NewReader(append(append([]byte(nil), file...), "what follows"...))
	if _, err := DecodeBinary(r); err != nil {
		t.Fatal(err)
	}
	if rest, _ := io.ReadAll(r); string(rest) != "what follows" {
		t.Errorf("the reader is left at %q, want it just past the trailer", rest)
	}
}

// TestDecodeBinaryRowsAreIsolated: the decoded rows are windows of one
// slab, so an append must reallocate its row rather than run into the
// neighbour's — directly after decoding, and on either side of a
// CloneCOW.
func TestDecodeBinaryRowsAreIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 10; trial++ {
		src := benchDocGraph(rng.Intn(4)+1, rng.Intn(6)+2, rng.Int63())
		// Unmerged duplicates (EncodeBinary writes rows as they are) leave
		// the decoded, merged rows shorter than their slab windows.
		for e := src.NumDocs(); e > 0; e-- {
			src.G.AddLink(rng.Intn(src.NumDocs()), rng.Intn(src.NumDocs()))
		}
		var buf bytes.Buffer
		if err := EncodeBinary(&buf, src); err != nil {
			t.Fatal(err)
		}
		dg, err := DecodeBinary(&buf)
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
// LocalSubgraph returns — the roster, aliased and clipped — for an
// ascending and a non-ascending roster alike.
func TestLocalIndexMatchesLocalSubgraph(t *testing.T) {
	dg := benchDocGraph(3, 5, 55)
	dg.Sites[1].Docs[0], dg.Sites[1].Docs[3] = dg.Sites[1].Docs[3], dg.Sites[1].Docs[0]
	for s, site := range dg.Sites {
		_, want := dg.LocalSubgraph(SiteID(s))
		got := dg.LocalIndex(SiteID(s))
		for _, idx := range []*LocalIndex{got, want} {
			if idx.Len() != len(site.Docs) || cap(idx.ToGlobal) != len(site.Docs) || &idx.ToGlobal[0] != &site.Docs[0] {
				t.Fatalf("site %d: index is not the roster, aliased and clipped", s)
			}
		}
	}
}
