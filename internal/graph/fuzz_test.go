package graph

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// FuzzReadText hardens the text graph parser: arbitrary input must never
// panic, and any input it accepts must produce a valid DocGraph that
// round-trips through WriteText.
func FuzzReadText(f *testing.F) {
	f.Add("# empty\n")
	f.Add("site 0 a.example\ndoc 0 0 http://a.example/\n")
	f.Add("site 0 a\nsite 1 b\ndoc 0 0 u1\ndoc 1 1 u2\nedge 0 1\nedge 1 0 2.5\n")
	f.Add("site 0\n")
	f.Add("edge 0 0\n")
	f.Add("doc 0 9 u\n")
	f.Add("site 0 a\ndoc 0 0 u\nedge 0 0 -1\n")
	f.Add(strings.Repeat("site 0 a\n", 3))

	f.Fuzz(func(t *testing.T, input string) {
		dg, err := ReadText(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if verr := dg.Validate(); verr != nil {
			t.Fatalf("accepted graph fails Validate: %v\ninput: %q", verr, input)
		}
		var buf bytes.Buffer
		if werr := WriteText(&buf, dg); werr != nil {
			t.Fatalf("WriteText of accepted graph: %v", werr)
		}
		back, rerr := ReadText(&buf)
		if rerr != nil {
			t.Fatalf("round-trip re-read failed: %v\nserialized: %q", rerr, buf.String())
		}
		if back.NumDocs() != dg.NumDocs() || back.NumSites() != dg.NumSites() {
			t.Fatalf("round-trip changed shape: %d/%d docs, %d/%d sites",
				dg.NumDocs(), back.NumDocs(), dg.NumSites(), back.NumSites())
		}
	})
}

// FuzzDecodeBinary hardens the graph file decoder against corrupt
// files: whatever the bytes, it never panics, anything it accepts passes
// Validate, what it hands back is bounded by the input — every row and
// roster is allocated at the size the (already validated) file states,
// so a short file cannot make a large graph — and so is what it
// allocates on the way, accepted or not: a count is believed only as
// far as its bytes have arrived.
func FuzzDecodeBinary(f *testing.F) {
	// Seed with a valid encoding, some mutations of it, and the files
	// the decoder must refuse.
	b := NewBuilder()
	b.AddLink("http://a.example/", "http://b.example/")
	dg := b.Build()
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, dg); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	if len(valid) > 10 {
		mutated := append([]byte(nil), valid...)
		mutated[len(mutated)/2] ^= 0xFF
		f.Add(mutated)
		f.Add(valid[:len(valid)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02})
	for _, data := range hostileFiles() {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.NewReader(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dg, err := DecodeBinary(in)
		runtime.ReadMemStats(&after)
		read := len(data) - in.Len()
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20+64*uint64(read) {
			t.Fatalf("decoding allocated %d bytes after reading %d", got, read)
		}
		if err != nil {
			return
		}
		if verr := dg.Validate(); verr != nil {
			t.Fatalf("accepted file fails Validate: %v", verr)
		}
		// A document takes 12 bytes of file and 40 of graph (a 24-byte
		// Doc, an 8-byte row offset, an 8-byte roster entry), an edge 12
		// and 12, a site 4 and 40.
		if got := docGraphFootprint(dg); got > 64*len(data) {
			t.Fatalf("a %d-byte file decoded into %d bytes of graph", len(data), got)
		}
	})
}

// docGraphFootprint sums the bytes of every array reachable from dg.
func docGraphFootprint(dg *DocGraph) int {
	n := cap(dg.Docs)*24 + cap(dg.Sites)*40
	for _, doc := range dg.Docs {
		n += len(doc.URL)
	}
	for _, site := range dg.Sites {
		n += len(site.Name) + cap(site.Docs)*8
	}
	return n + digraphFootprint(dg.G)
}

// digraphFootprint sums the bytes of every array reachable from g.
func digraphFootprint(g *Digraph) int {
	n := cap(g.tail) * 48
	if p := g.base; p != nil {
		n += cap(p.off)*8 + cap(p.to)*4 + cap(p.w)*8
	}
	g.eachOverlay(func(r row) row {
		n += cap(r.to)*4 + cap(r.w)*8
		return r
	})
	return n + len(g.patch)*(8+48)
}

// FuzzCloneCOW hardens the copy-on-write contract behind snapshot
// serving: a parent and its CloneCOW clone share the packed base and the
// sealed overlay rows by pointer, and a random interleaving of
// AddEdge/Dedupe on either side must never write memory the other can
// read. The check is differential — each side is mirrored onto an
// independent deep copy receiving the same operation sequence, and any
// divergence (the clone drifting from its reference, or a clone mutation
// leaking into the parent) fails. The digraphs sit under document graphs
// that grow by appended documents and sites, and after every step
// LocalOf must name every document's place in its roster on both sides:
// the local column is shared and extended the way Docs and the rosters
// are.
func FuzzCloneCOW(f *testing.F) {
	f.Add([]byte{4, 2, 0, 1, 1, 2, 0, 0, 1, 1, 1, 0})
	f.Add([]byte{8, 3, 0, 1, 1, 2, 2, 3, 2, 0, 5, 3, 1, 6, 3, 0, 0})
	f.Add([]byte{2, 1, 0, 1, 0, 0, 1, 1, 1, 0, 2, 0, 0, 3, 1, 1})
	f.Add([]byte{16, 0, 0, 1, 1, 0, 2, 1, 1})
	f.Add([]byte{})
	f.Add([]byte{8, 0x83, 0, 1, 1, 2, 2, 3, 0, 1, 4, 1, 1, 5, 2, 2, 2, 0, 3, 1, 0, 1, 6})
	f.Add([]byte{6, 0xC2, 0, 1, 1, 2, 0x40, 1, 0, 0x41, 3, 0, 0, 1, 2, 0x40, 3, 0, 0x41, 1, 0, 2, 0, 0, 0x40, 0, 0})
	f.Add([]byte{5, 0x01, 2, 3, 0x41, 0, 0, 0x40, 3, 0, 0x40, 3, 0, 1, 4, 4, 3, 0, 0})

	sameEdges := func(a, b *Digraph) bool { return reflect.DeepEqual(rowsOf(a), rowsOf(b)) }

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0])%14
		k := int(data[1]) % 16
		sealed, derived := data[1]&0x80 != 0, data[1]&0x40 != 0
		data = data[2:]
		// Nodes the operations never address weigh the base down, so that
		// a few rewritten rows stay in the overlay across a Dedupe. On the
		// bare n-node graph every Dedupe would repack and no overlay row
		// would ever be shared.
		const ballast = 48
		nodes := n + ballast
		parent := NewDigraph(nodes)
		for i := 0; i < ballast; i++ {
			for j := 0; j < 16; j++ {
				parent.AddEdge(n+i, n+(i+j)%ballast, 1)
			}
		}
		parent.Dedupe()
		for i := 0; i < k && len(data) >= 2; i++ {
			parent.AddEdge(int(data[0])%n, int(data[1])%n, float64(1+data[1]%5))
			data = data[2:]
		}
		// A sealed parent shares its overlay rows with the clone; one with
		// rows still open to appends hands the clone copies of them.
		if sealed {
			parent.Dedupe()
		}

		// Three sites over the nodes, one roster not ascending; a parent
		// whose column is derived shares it with the clone, one without
		// leaves each side to derive its own.
		parentDocs := &DocGraph{G: parent, Docs: make([]Doc, nodes), Sites: make([]Site, 3)}
		for d := range parentDocs.Docs {
			parentDocs.Docs[d].Site = SiteID(d % 3)
			parentDocs.Sites[d%3].Docs = append(parentDocs.Sites[d%3].Docs, DocID(d))
		}
		r := parentDocs.Sites[1].Docs
		r[0], r[len(r)-1] = r[len(r)-1], r[0]
		if derived {
			checkLocalColumn(t, "parent, before the clone", parentDocs)
		}

		// The clone is deduplicated, the parent left as it was.
		cowDocs := parentDocs.CloneCOW()
		cow := cowDocs.G
		refCow := parent.Clone()
		refCow.Dedupe()
		refParent := parent.Clone()
		// grow appends a document to site s, a new one if one past the
		// last, and mirrors its node and link onto the reference.
		grow := func(dg *DocGraph, ref *Digraph, s int) {
			d := appendDoc(dg, SiteID(s))
			ref.EnsureNodes(len(dg.Docs))
			ref.AddLink(int(d), int(dg.Sites[s].Docs[0]))
		}

		for len(data) >= 3 {
			sel, from, to := data[0], int(data[1])%n, int(data[2])%n
			data = data[3:]
			w := float64(1 + sel%5)
			switch {
			case sel&0x40 != 0 && sel&1 == 0:
				grow(cowDocs, refCow, from%(len(cowDocs.Sites)+1))
			case sel&0x40 != 0:
				// The rosters the clone took are its to append to (they
				// are shared unclipped: one writer); the parent grows by
				// sites of its own.
				s := len(parentDocs.Sites)
				if s > 3 && from%2 == 0 {
					s--
				}
				grow(parentDocs, refParent, s)
			}
			switch sel % 4 {
			case 0:
				cow.AddEdge(from, to, w)
				refCow.AddEdge(from, to, w)
			case 1:
				parent.AddEdge(from, to, w)
				refParent.AddEdge(from, to, w)
			case 2:
				cow.Dedupe()
				refCow.Dedupe()
			case 3:
				parent.Dedupe()
				refParent.Dedupe()
			}
			checkLocalColumn(t, "clone", cowDocs)
			checkLocalColumn(t, "parent", parentDocs)
		}
		for what, dg := range map[string]*DocGraph{"clone": cowDocs, "parent": parentDocs} {
			if err := dg.Validate(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}

		if !sameEdges(cow, refCow) {
			t.Fatal("COW clone diverged from its deep-copy reference")
		}
		if !sameEdges(parent, refParent) {
			t.Fatal("parent diverged from its deep-copy reference — a COW mutation leaked across the pair")
		}
		// The derived transition matrices must agree too: a corrupted
		// shared row that happens to survive the edge-list comparison
		// (e.g. a Dedupe sorting a row the other side still reads) would
		// surface here.
		if !reflect.DeepEqual(cow.TransitionMatrix(), refCow.TransitionMatrix()) {
			t.Fatal("COW clone transition matrix diverged from its reference")
		}
		if !reflect.DeepEqual(parent.TransitionMatrix(), refParent.TransitionMatrix()) {
			t.Fatal("parent transition matrix diverged from its reference")
		}
	})
}
