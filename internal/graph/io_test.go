package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestTextRoundTrip(t *testing.T) {
	dg := buildTinyWeb(t)
	var buf bytes.Buffer
	if err := WriteText(&buf, dg); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	back, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	assertSameDocGraph(t, dg, back)
}

func TestBinaryRoundTrip(t *testing.T) {
	dg := buildTinyWeb(t)
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, dg); err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}
	back, err := DecodeBinary(&buf)
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	assertSameDocGraph(t, dg, back)
}

// TestReadTellsTheFormatsApart: Read takes either format of one web by
// its first byte; an input with no first byte, or with nothing after
// the magic, is an error rather than an empty graph.
func TestReadTellsTheFormatsApart(t *testing.T) {
	dg := buildTinyWeb(t)
	var text, bin bytes.Buffer
	if err := WriteText(&text, dg); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if err := EncodeBinary(&bin, dg); err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}
	magic := []byte{bin.Bytes()[0]}
	for name, in := range map[string]*bytes.Buffer{"text": &text, "binary": &bin} {
		back, err := Read(in)
		if err != nil {
			t.Fatalf("Read(%s): %v", name, err)
		}
		assertSameDocGraph(t, dg, back)
	}
	for name, in := range map[string][]byte{"empty": nil, "lone magic byte": magic} {
		if dg, err := Read(bytes.NewReader(in)); err == nil {
			t.Errorf("Read(%s) = a graph of %d docs, want an error", name, dg.NumDocs())
		}
	}
}

// TestDecodeBinaryMergesUnsortedRows: the decoder takes a file's rows as
// sorted and merged only when it saw every one strictly ascending. One
// row out of order, or naming a target twice, and it sorts and merges
// them all — the graph that comes back is the same either way.
func TestDecodeBinaryMergesUnsortedRows(t *testing.T) {
	want := benchDocGraph(3, 6, 56)
	var clean bytes.Buffer
	if err := EncodeBinary(&clean, want); err != nil {
		t.Fatal(err)
	}
	long := 0
	for i := 0; i < want.G.NumNodes(); i++ {
		if want.G.degree(i) > want.G.degree(long) {
			long = i
		}
	}
	for name, disorder := range map[string]func(r row) row{
		"one row reversed": func(r row) row {
			slices.Reverse(r.to)
			slices.Reverse(r.w)
			return r
		},
		"one link in two halves": func(r row) row {
			r.w[1] /= 2
			return row{slices.Insert(r.to, 1, r.to[1]), slices.Insert(r.w, 1, r.w[1])}
		},
	} {
		src := &DocGraph{G: want.G.Clone(), Docs: want.Docs, Sites: want.Sites}
		to, w := src.G.row(long)
		src.G.setRow(long, disorder(row{to, w}.clone()))
		var file bytes.Buffer
		if err := EncodeBinary(&file, src); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(file.Bytes(), clean.Bytes()) {
			t.Fatalf("%s: the file is the clean one; nothing is exercised", name)
		}
		got, err := DecodeBinary(&file)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameDigraph(t, got.G, want.G)
		var again bytes.Buffer
		if err := EncodeBinary(&again, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), clean.Bytes()) {
			t.Errorf("%s: the merged graph does not encode to the clean file", name)
		}
	}
}

func assertSameDocGraph(t *testing.T, a, b *DocGraph) {
	t.Helper()
	if a.NumDocs() != b.NumDocs() || a.NumSites() != b.NumSites() {
		t.Fatalf("shape: %d/%d docs, %d/%d sites",
			a.NumDocs(), b.NumDocs(), a.NumSites(), b.NumSites())
	}
	for d := range a.Docs {
		if a.Docs[d] != b.Docs[d] {
			t.Fatalf("doc %d: %+v vs %+v", d, a.Docs[d], b.Docs[d])
		}
	}
	for s := range a.Sites {
		if a.Sites[s].Name != b.Sites[s].Name {
			t.Fatalf("site %d name: %q vs %q", s, a.Sites[s].Name, b.Sites[s].Name)
		}
		if !slices.Equal(a.Sites[s].Docs, b.Sites[s].Docs) {
			t.Fatalf("site %d roster: %v vs %v", s, a.Sites[s].Docs, b.Sites[s].Docs)
		}
	}
	a.G.Dedupe()
	b.G.Dedupe()
	if a.G.NumEdges() != b.G.NumEdges() {
		t.Fatalf("edges: %d vs %d", a.G.NumEdges(), b.G.NumEdges())
	}
	for i := 0; i < a.G.NumNodes(); i++ {
		var ea, eb []Edge
		a.G.EachEdge(i, func(e Edge) { ea = append(ea, e) })
		b.G.EachEdge(i, func(e Edge) { eb = append(eb, e) })
		if len(ea) != len(eb) {
			t.Fatalf("node %d: %d vs %d edges", i, len(ea), len(eb))
		}
		for k := range ea {
			if ea[k] != eb[k] {
				t.Fatalf("node %d edge %d: %+v vs %+v", i, k, ea[k], eb[k])
			}
		}
	}
}

func TestReadTextErrors(t *testing.T) {
	tests := []struct {
		name, input string
	}{
		{"unknown record", "frob 1 2\n"},
		{"site non-dense", "site 5 x\n"},
		{"doc without site", "doc 0 0 http://x/\n"},
		{"doc bad site id", "site 0 a\ndoc 0 3 http://x/\n"},
		{"edge unknown doc", "site 0 a\ndoc 0 0 u\nedge 0 7\n"},
		{"edge bad weight", "site 0 a\ndoc 0 0 u\nedge 0 0 xyz\n"},
		{"short site", "site 0\n"},
		{"short edge", "site 0 a\ndoc 0 0 u\nedge 0\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadText(strings.NewReader(tt.input)); err == nil {
				t.Errorf("ReadText accepted %q", tt.input)
			}
		})
	}
}

func TestReadTextSkipsCommentsAndBlank(t *testing.T) {
	input := "# header\n\nsite 0 a\n# mid\ndoc 0 0 http://a/1\n"
	dg, err := ReadText(strings.NewReader(input))
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if dg.NumDocs() != 1 {
		t.Errorf("NumDocs = %d", dg.NumDocs())
	}
}

func TestTextPreservesWeights(t *testing.T) {
	b := NewBuilder()
	d1 := b.AddDoc("http://a.example/1")
	d2 := b.AddDoc("http://a.example/2")
	dg := b.Build()
	dg.G.AddEdge(int(d1), int(d2), 2.5)
	var buf bytes.Buffer
	if err := WriteText(&buf, dg); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	back, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	var w float64
	back.G.EachEdge(int(d1), func(e Edge) { w = e.Weight })
	if w != 2.5 {
		t.Errorf("weight = %g, want 2.5", w)
	}
}

// randomDocGraph builds a random multi-site DocGraph for property tests.
func randomDocGraph(rng *rand.Rand) *DocGraph {
	b := NewBuilder()
	nSites := rng.Intn(5) + 1
	var urls []string
	for s := 0; s < nSites; s++ {
		nDocs := rng.Intn(6) + 1
		for d := 0; d < nDocs; d++ {
			url := "http://site" + string(rune('a'+s)) + ".example/p" + string(rune('0'+d))
			b.AddDoc(url)
			urls = append(urls, url)
		}
	}
	nEdges := rng.Intn(4 * len(urls))
	for e := 0; e < nEdges; e++ {
		b.AddLink(urls[rng.Intn(len(urls))], urls[rng.Intn(len(urls))])
	}
	return b.Build()
}

// Property: both serializations round-trip arbitrary random DocGraphs.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dg := randomDocGraph(rng)

		var tb, gb bytes.Buffer
		if err := WriteText(&tb, dg); err != nil {
			return false
		}
		fromText, err := ReadText(&tb)
		if err != nil {
			return false
		}
		if err := EncodeBinary(&gb, dg); err != nil {
			return false
		}
		fromGob, err := DecodeBinary(&gb)
		if err != nil {
			return false
		}
		return fromText.NumDocs() == dg.NumDocs() &&
			fromGob.NumDocs() == dg.NumDocs() &&
			fromText.G.NumEdges() == dg.G.NumEdges() &&
			fromGob.G.NumEdges() == dg.G.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: SiteGraph aggregation preserves total link weight and its
// weights are exactly the per-site-pair sums.
func TestSiteGraphAggregationQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dg := randomDocGraph(rng)
		sg := DeriveSiteGraph(dg, SiteGraphOptions{})
		var docTotal float64
		dg.G.EachEdgeAll(func(_ int, e Edge) { docTotal += e.Weight })
		if sg.TotalWeight() != docTotal {
			return false
		}
		// Cross-check one random site pair by brute force.
		if dg.NumSites() == 0 {
			return true
		}
		sa := SiteID(rng.Intn(dg.NumSites()))
		sb := SiteID(rng.Intn(dg.NumSites()))
		var brute float64
		dg.G.EachEdgeAll(func(from int, e Edge) {
			if dg.Docs[from].Site == sa && dg.Docs[e.To].Site == sb {
				brute += e.Weight
			}
		})
		return sg.SiteLinkCount(sa, sb) == brute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
