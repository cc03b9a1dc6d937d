package graph

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// FuzzReadText hardens the text graph parser: arbitrary input must never
// panic, and any input it accepts must produce a valid DocGraph that
// round-trips through WriteText to the same graph, every URL and site name
// included.
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
		assertSameDocGraph(t, dg, back)
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
	// A URL section with three restarts, an empty URL, and a URL shorter
	// than the prefix its predecessor shares with the one before.
	fronted := &DocGraph{G: NewDigraph(0), Sites: []Site{{Name: "a.example"}}}
	for _, url := range []string{"http://a.example/x/y/z", "http://a.example/x/y/w", "http://a", ""} {
		fronted.AddDoc(url, 0)
	}
	for d := 0; d < 36; d++ {
		fronted.AddDoc(fmt.Sprintf("http://a.example/p%d", d%7), 0)
	}
	fronted.G.AddLink(1, 2)
	var frontedFile bytes.Buffer
	if err := EncodeBinary(&frontedFile, fronted); err != nil {
		f.Fatal(err)
	}
	f.Add(frontedFile.Bytes())
	// Files whose listed section is not empty: link counts, held in 2
	// bytes, and weights that keep them float64 — one of 0.5, one above
	// 65 535, and a link count before a fraction.
	f.Add(twoDocFile(nil))
	f.Add(twoDocFile(func(f *rawFile) { f.weights[0] = 0.5 }))
	f.Add(twoDocFile(func(f *rawFile) { f.weights[0] = 70000 }))
	f.Add(twoDocFile(func(f *rawFile) { f.listed, f.weights = []uint32{0, 1}, []float64{3, 2.5} }))
	// Files whose links reach past 2 bytes, one with a row out of order.
	f.Add(farFile(false))
	f.Add(farFile(true))
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
		// A document takes at least 10 bytes of file and about 21 of
		// graph (its site, a row offset, a roster entry, a share of the
		// restart index) beside URL bytes that are the same in both, an
		// edge 4 and 4, a listed link 12 and 12, a site 4 and 40.
		if got := docGraphFootprint(dg); got > 64*len(data) {
			t.Fatalf("a %d-byte file decoded into %d bytes of graph", len(data), got)
		}
	})
}

// docGraphFootprint sums the bytes of every array reachable from dg.
func docGraphFootprint(dg *DocGraph) int {
	n := cap(dg.runs)*8 + cap(dg.urls) + cap(dg.restarts)*8 + cap(dg.Sites)*40
	for _, site := range dg.Sites {
		n += len(site.Name) + cap(site.Docs)*8
	}
	return n + digraphFootprint(dg.G)
}

// digraphFootprint sums the bytes of every array reachable from g.
func digraphFootprint(g *Digraph) int {
	const rowBytes = int(unsafe.Sizeof(row{}))
	n := cap(g.tail) * rowBytes
	if p := g.base; p != nil {
		n += cap(p.off)*4 + cap(p.to)*2 + cap(p.farPos)*4 + cap(p.farTo)*4 + cap(p.pos)*4 + cap(p.w)*8 + cap(p.w16)*2
	}
	g.eachOverlay(func(r *row) bool {
		n += cap(r.to)*4 + cap(r.pos)*4 + cap(r.w)*8
		return false
	})
	return n + len(g.patch)*(16+rowBytes)
}

// FuzzCloneCOW hardens the copy-on-write contract behind snapshot
// serving: a parent and its CloneCOW clone share the packed base and the
// sealed overlay rows by pointer, and a random interleaving of
// AddEdge/Dedupe on either side must never write memory the other can
// read. The check is differential — each side is mirrored onto an
// independent deep copy receiving the same operation sequence, and any
// divergence (the clone drifting from its reference, or a clone mutation
// leaking into the parent) fails. The digraphs sit under document graphs
// that grow by AddDoc, in old sites and new ones, and after every step
// each side's URL and SiteOf must give back every document it added and
// no other — AddDoc on one side never shows on the other — and SiteOf
// and LocalOf must name every document's roster and place in it: the
// run table, the URL arena and the rosters are shared clipped and
// extended on both sides, over sites of one run each or interleaved.
// Last, each side's transition matrix and every site's local subgraph are
// checked against the edges added to it, read from no graph: a row read
// with a field of the row before it, which the deep copy would repeat,
// shows there. Bit 0x20 of the second byte opens a gap of farGap isolated
// nodes between the lower half of the nodes and the upper, so that every
// link from one half to the other is a far one — the ballast rows, in the
// upper half, then link to the lower too, so the base holds far links —
// and the checks are made entry by entry, the graph being too large for
// dense ones.
func FuzzCloneCOW(f *testing.F) {
	f.Add([]byte{4, 2, 0, 1, 1, 2, 0, 0, 1, 1, 1, 0})
	f.Add([]byte{8, 3, 0, 1, 1, 2, 2, 3, 2, 0, 5, 3, 1, 6, 3, 0, 0})
	f.Add([]byte{2, 1, 0, 1, 0, 0, 1, 1, 1, 0, 2, 0, 0, 3, 1, 1})
	f.Add([]byte{16, 0, 0, 1, 1, 0, 2, 1, 1})
	f.Add([]byte{})
	f.Add([]byte{8, 0x83, 0, 1, 1, 2, 2, 3, 0, 1, 4, 1, 1, 5, 2, 2, 2, 0, 3, 1, 0, 1, 6})
	f.Add([]byte{6, 0xC2, 0, 1, 1, 2, 0x40, 1, 0, 0x41, 3, 0, 0, 1, 2, 0x40, 3, 0, 0x41, 1, 0, 2, 0, 0, 0x40, 0, 0})
	f.Add([]byte{5, 0x01, 2, 3, 0x41, 0, 0, 0x40, 3, 0, 0x40, 3, 0, 1, 4, 4, 3, 0, 0})
	// A sealed parent with base rows listing links and none, patched rows
	// listing links and none, and appended rows on both sides: every walk
	// goes from one kind of row to another.
	f.Add([]byte{10, 0x84, 1, 3, 2, 4, 4, 8, 5, 9, 0x40, 0, 2, 0x44, 1, 3, 0x41, 2, 1, 2, 0, 0, 3, 0, 0, 0x48, 3, 5, 2, 0, 0})
	// The same, and one with rows open to appends, across the far gap.
	f.Add([]byte{10, 0xA4, 1, 3, 2, 4, 4, 8, 5, 9, 0x40, 0, 2, 0x44, 1, 3, 0x41, 2, 1, 2, 0, 0, 3, 0, 0, 0x48, 3, 5, 2, 0, 0})
	f.Add([]byte{6, 0x62, 0, 4, 1, 5, 0x40, 1, 0, 0x41, 3, 0, 0, 4, 2, 0x40, 3, 0, 0x41, 1, 0, 2, 0, 0, 0x40, 0, 0})
	// A sealed parent whose base holds link counts in 2 bytes, a clone
	// given links of weight ½ in eight rows, and the clone's Dedupe, which
	// repacks it into a float64 base.
	f.Add([]byte{13, 0x80, 0x24, 0, 1, 0x24, 1, 2, 0x24, 2, 3, 0x24, 3, 4, 0x24, 4, 5, 0x24, 5, 6, 0x24, 6, 7, 0x24, 7, 8, 0x02, 0, 0})

	sameEdges := func(a, b *Digraph) bool { return reflect.DeepEqual(rowsOf(a), rowsOf(b)) }

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0])%14
		k := int(data[1]) % 16
		sealed, blocked, far := data[1]&0x80 != 0, data[1]&0x40 != 0, data[1]&0x20 != 0
		data = data[2:]
		// Nodes the operations never address weigh the base down, so that
		// a few rewritten rows stay in the overlay across a Dedupe. On the
		// bare n-node graph every Dedupe would repack and no overlay row
		// would ever be shared. Every other ballast row lists a link.
		const ballast = 48
		nodes := n + ballast
		// node numbers the graph's nodes past the gap, if there is one.
		node := func(x int) int { return x }
		if far {
			nodes += farGap
			node = func(x int) int {
				if x >= n/2 {
					return x + farGap
				}
				return x
			}
		}
		parent := NewDigraph(nodes)
		parentModel := edgeModel{}
		addEdge := func(g *Digraph, m edgeModel, from, to int, w float64) {
			g.AddEdge(from, to, w)
			m.add(from, to, w)
		}
		for i := 0; i < ballast; i++ {
			for j := 0; j < 16; j++ {
				addEdge(parent, parentModel, node(n+i), node(n+(i+j)%ballast), float64(1+i%2*(j%2)))
			}
			if far { // across the gap from the lower half: far base links
				addEdge(parent, parentModel, node(n+i), node(i%n), float64(1+i%3%2))
			}
		}
		parent.Dedupe()
		for i := 0; i < k && len(data) >= 2; i++ {
			addEdge(parent, parentModel, node(int(data[0])%n), node(int(data[1])%n), float64(1+data[1]%9)/2)
			data = data[2:]
		}
		// A sealed parent shares its overlay rows with the clone; one with
		// rows still open to appends hands the clone copies of them.
		if sealed {
			parent.Dedupe()
		}

		// Three sites over the nodes, each one run or all three
		// interleaved document by document.
		type added struct {
			url  string
			site SiteID
		}
		var parentAdded []added
		parentDocs := &DocGraph{G: parent, Sites: make([]Site, 3)}
		for d := range nodes {
			s := d % 3
			if blocked {
				s = d * 3 / nodes
			}
			a := added{fmt.Sprintf("http://s%d.example/%d", s, d), SiteID(s)}
			parentDocs.AddDoc(a.url, a.site)
			parentAdded = append(parentAdded, a)
		}

		// The clone is deduplicated, the parent left as it was.
		cowDocs := parentDocs.CloneCOW()
		cow := cowDocs.G
		refCow := parent.Clone()
		refCow.Dedupe()
		refParent := parent.Clone()
		cowAdded := slices.Clip(parentAdded)
		cowModel := maps.Clone(parentModel)
		// grow adds a document to site s, a new one if one past the last,
		// under a URL of depth path segments — so that one URL may be a
		// prefix of the one before it, or longer, or share nothing — and
		// mirrors its node and link onto the reference and the model. The
		// link weighs 1, ½ or 1½ by depth, so appended rows list links too.
		grow := func(dg *DocGraph, ref *Digraph, edges edgeModel, model *[]added, s, depth int) {
			if s == len(dg.Sites) {
				dg.Sites = append(dg.Sites, Site{Name: fmt.Sprintf("new%d.example", s)})
			}
			a := added{"http://" + dg.Sites[s].Name + "/" + strings.Repeat("p/", depth), SiteID(s)}
			d := dg.AddDoc(a.url, a.site)
			w := float64(1+depth%3) / 2
			addEdge(dg.G, edges, int(d), int(dg.Sites[s].Docs[0]), w)
			ref.EnsureNodes(dg.NumDocs())
			ref.AddEdge(int(d), int(dg.Sites[s].Docs[0]), w)
			*model = append(*model, a)
		}
		checkAdded := func(what string, dg *DocGraph, model []added) {
			t.Helper()
			if dg.NumDocs() != len(model) {
				t.Fatalf("%s: %d documents, added %d", what, dg.NumDocs(), len(model))
			}
			for d, a := range model {
				if got, s := dg.URL(DocID(d)), dg.SiteOf(DocID(d)); got != a.url || s != a.site {
					t.Fatalf("%s: doc %d is %q in site %d, added %q in site %d", what, d, got, s, a.url, a.site)
				}
			}
		}

		for len(data) >= 3 {
			sel, from, to := data[0], int(data[1])%n, int(data[2])%n
			edgeFrom, edgeTo := node(from), node(to)
			data = data[3:]
			w := float64(1+sel%9) / 2
			switch {
			case sel&0x40 != 0 && sel&1 == 0:
				grow(cowDocs, refCow, cowModel, &cowAdded, from%(len(cowDocs.Sites)+1), to)
			case sel&0x40 != 0:
				// The rosters the clone took are its to append to (they
				// are shared unclipped: one writer); the parent grows by
				// sites of its own.
				s := len(parentDocs.Sites)
				if s > 3 && from%2 == 0 {
					s--
				}
				grow(parentDocs, refParent, parentModel, &parentAdded, s, to)
			}
			switch sel % 4 {
			case 0:
				addEdge(cow, cowModel, edgeFrom, edgeTo, w)
				refCow.AddEdge(edgeFrom, edgeTo, w)
			case 1:
				addEdge(parent, parentModel, edgeFrom, edgeTo, w)
				refParent.AddEdge(edgeFrom, edgeTo, w)
			case 2:
				cow.Dedupe()
				refCow.Dedupe()
			case 3:
				parent.Dedupe()
				refParent.Dedupe()
			}
			checkSiteRuns(t, "clone", cowDocs)
			checkSiteRuns(t, "parent", parentDocs)
			checkAdded("clone", cowDocs, cowAdded)
			checkAdded("parent", parentDocs, parentAdded)
		}
		for what, dg := range map[string]*DocGraph{"clone": cowDocs, "parent": parentDocs} {
			if err := dg.Validate(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}

		canonical(t, "clone", cow)
		canonical(t, "parent", parent)
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
		for what, side := range map[string]struct {
			dg *DocGraph
			m  edgeModel
		}{"clone": {cowDocs, cowModel}, "parent": {parentDocs, parentModel}} {
			if far {
				checkTransitionSparse(t, what, side.dg.G.TransitionMatrix(), side.m, side.dg.NumDocs())
				for s := range side.dg.Sites {
					sub, _ := side.dg.LocalSubgraph(SiteID(s))
					checkTransitionSparse(t, fmt.Sprintf("%s: LocalSubgraph(%d)", what, s), sub.TransitionMatrix(), localModel(side.dg, side.m, SiteID(s)), sub.NumNodes())
				}
				continue
			}
			if err := checkTransition(side.dg.G.TransitionMatrix(), side.m.denseTransition(side.dg.NumDocs())); err != nil {
				t.Fatalf("%s: TransitionMatrix: %v", what, err)
			}
			for s := range side.dg.Sites {
				sub, _ := side.dg.LocalSubgraph(SiteID(s))
				if err := checkTransition(sub.TransitionMatrix(), localModel(side.dg, side.m, SiteID(s)).denseTransition(sub.NumNodes())); err != nil {
					t.Fatalf("%s: LocalSubgraph(%d): %v", what, s, err)
				}
			}
		}
	})
}

// FuzzTransitionMatrix: whatever the links — repeated, self-looping,
// integer or fractional weights, rows left dangling — the transition
// matrix built in its retained form (sources only, the links of weight
// other than 1 listed) is row-stochastic on every non-dangling row and
// agrees entry by entry with the dense reference w/out-weight. The first
// byte sizes the graph; every three after it are one AddEdge: source,
// target, and a weight byte whose top bit makes it a fraction (k/4)
// rather than an integer (k).
func FuzzTransitionMatrix(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 0, 0, 1})
	f.Add([]byte{2, 0, 1, 1, 0, 2, 1, 0, 1, 1, 1, 0, 3})
	f.Add([]byte{5, 0, 1, 0x89, 0, 2, 0x81, 1, 1, 1, 2, 3, 7, 2, 3, 1, 4, 0, 1})
	f.Add([]byte{15, 3, 4, 1, 3, 4, 1, 3, 5, 2, 9, 9, 0x80, 9, 1, 0xFF, 14, 0, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%16
		var edges []weightedEdge
		for data = data[1:]; len(data) >= 3; data = data[3:] {
			w := float64(data[2]&0x7F + 1)
			if data[2]&0x80 != 0 {
				w /= 4
			}
			edges = append(edges, weightedEdge{int(data[0]) % n, int(data[1]) % n, w})
		}
		g, want := transitionReference(n, edges)
		if err := checkTransition(g.TransitionMatrix(), want); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzChangedSince checks the Update path's two shortcuts against the
// whole graph, over random Apply histories on a CloneCOW of a web a few
// edits old (its overlay shared with the clone): AddLink, AddEdge at
// weights other than 1 (some near overflow), AddDoc into old sites and
// new ones, a roster replaced out of place (kept, or broken: one document
// left out, one twice, two swapped), and Dedupe. Every site whose roster
// or any document's row differs from the parent's, by a full diff, must
// be in ChangedSince; and ValidateSince over that set must refuse exactly
// what a full Validate refuses. The first byte picks the web, one run a
// site or interleaved; every three after it are one step.
func FuzzChangedSince(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2})
	f.Add([]byte{1, 0x10, 3, 4, 0x21, 0, 0, 0x30, 5, 6})
	f.Add([]byte{2, 0x40, 1, 0, 0x41, 2, 3, 0x11, 0, 9})
	f.Add([]byte{3, 0x50, 0, 1, 0x51, 2, 0, 0x52, 1, 0, 0x53, 3, 0})
	f.Add([]byte{4, 0x60, 0, 0, 0x12, 1, 1, 0x12, 1, 2, 0x70, 0, 0})
	f.Add([]byte{5, 0x40, 7, 0, 0x00, 200, 3, 0x30, 0, 0, 0x13, 5, 5})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		web := benchDocGraph(4+int(data[0]%4), 12, int64(data[0]))
		if data[0]&0x80 != 0 {
			web = interleave(web)
		}
		// The parent is a served graph some Updates old: a patched row, a
		// document past the base, and both shared with the clone.
		parent := web.CloneCOW()
		parent.G.AddEdge(1, 2, 3)
		parent.G.AddLink(int(parent.AddDoc("http://s0.example/late", 0)), 0)
		parent.G.Dedupe()
		if err := parent.Validate(); err != nil {
			t.Fatal(err)
		}
		work := parent.CloneCOW()
		weights := [...]float64{1, 0.5, 2.5, math.MaxFloat64 / 2}
		for data = data[1:]; len(data) >= 3; data = data[3:] {
			op, a, b := data[0], int(data[1]), int(data[2])
			nd, ns := work.NumDocs(), len(work.Sites)
			switch op >> 4 & 7 {
			case 0, 1:
				work.G.AddEdge(a%nd, b%nd, weights[op%4])
			case 2:
				work.G.Dedupe()
			case 3:
				s := SiteID(a % (ns + 1))
				if int(s) == ns {
					work.Sites = append(work.Sites, Site{Name: fmt.Sprintf("new%d.example", s)})
				}
				d := work.AddDoc(fmt.Sprintf("http://%s/%d", work.Sites[s].Name, b), s)
				work.G.AddLink(int(d), b%nd)
			case 4, 5:
				s := a % ns
				docs := slices.Clone(work.Sites[s].Docs)
				if k := len(docs); k > 1 {
					switch op % 4 {
					case 1:
						docs = docs[:k-1]
					case 2:
						docs[k-1] = docs[0]
					case 3:
						docs[0], docs[1] = docs[1], docs[0]
					}
				}
				work.Sites[s].Docs = docs
			}
		}
		derived := work.ChangedSince(parent)
		in := make(map[SiteID]bool)
		for _, s := range derived {
			in[s] = true
		}
		edges := func(dg *DocGraph, d int) []Edge {
			var out []Edge
			dg.G.EachEdge(d, func(e Edge) { out = append(out, e) })
			return out
		}
		for s := range work.Sites {
			if s >= len(parent.Sites) || !slices.Equal(work.Sites[s].Docs, parent.Sites[s].Docs) {
				if !in[SiteID(s)] {
					t.Fatalf("site %d's roster changed, not derived: %v", s, derived)
				}
			}
		}
		for d := 0; d < work.NumDocs(); d++ {
			s := work.SiteOf(DocID(d))
			if (d >= parent.NumDocs() || !slices.Equal(edges(work, d), edges(parent, d))) && !in[s] {
				t.Fatalf("doc %d's row changed, its site %d not derived: %v", d, s, derived)
			}
		}
		full, since := work.Validate(), work.ValidateSince(parent, derived)
		if (full == nil) != (since == nil) {
			t.Fatalf("Validate: %v, ValidateSince: %v", full, since)
		}
	})
}
