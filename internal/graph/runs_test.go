package graph

import (
	"bytes"
	"fmt"
	"maps"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"
)

// checkSiteRuns fails unless dg is valid and SiteOf and LocalOf, read
// through the runs, name every document's roster and its place in it.
func checkSiteRuns(t *testing.T, what string, dg *DocGraph) {
	t.Helper()
	if err := dg.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for s, site := range dg.Sites {
		for i, d := range site.Docs {
			if got, local := dg.SiteOf(d), dg.LocalOf(d); got != SiteID(s) || local != i {
				t.Fatalf("%s: doc %d is local %d of site %d, want local %d of site %d", what, d, local, got, i, s)
			}
		}
	}
}

// checkAgainstColumn fails unless dg is the web of the plain site column
// col and the links of m: SiteOf, LocalOf, every site's LocalIndex and
// local subgraph, and the SiteGraph's rows, each computed here from col
// and m alone.
func checkAgainstColumn(t *testing.T, what string, dg *DocGraph, col []SiteID, m edgeModel) {
	t.Helper()
	if err := dg.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if dg.NumDocs() != len(col) {
		t.Fatalf("%s: %d documents, added %d", what, dg.NumDocs(), len(col))
	}
	local, members := make([]int, len(col)), make([][]DocID, len(dg.Sites))
	runs := newRunIndex(dg)
	for d, s := range col {
		local[d] = len(members[s])
		members[s] = append(members[s], DocID(d))
		if got, i := dg.SiteOf(DocID(d)), dg.LocalOf(DocID(d)); got != s || i != local[d] {
			t.Fatalf("%s: doc %d is local %d of site %d, want local %d of site %d", what, d, i, got, local[d], s)
		}
		if got := runs.siteOf(uint32(d)); got != s {
			t.Fatalf("%s: the run index puts doc %d in site %d, want %d", what, d, got, s)
		}
	}
	sites, subs := edgeModel{}, make([]edgeModel, len(dg.Sites))
	for s := range subs {
		subs[s] = edgeModel{}
	}
	for k, w := range m {
		from, to := col[k[0]], col[k[1]]
		sites.add(int(from), int(to), w)
		if from == to {
			subs[from].add(local[k[0]], local[k[1]], w)
		}
	}
	for s := range dg.Sites {
		sub, idx := dg.LocalSubgraph(SiteID(s))
		if !slices.Equal(idx.ToGlobal, members[s]) {
			t.Fatalf("%s: site %d's index is %v, want %v", what, s, idx.ToGlobal, members[s])
		}
		modelsEqual(t, fmt.Sprintf("%s: LocalSubgraph(%d)", what, s), modelOf(sub), subs[s])
	}
	modelsEqual(t, what+": DeriveSiteGraph", modelOf(DeriveSiteGraph(dg, SiteGraphOptions{}).G), sites)
}

// modelOf reads g's links, through the accessor, into an edge model.
func modelOf(g *Digraph) edgeModel {
	m := edgeModel{}
	g.EachEdgeAll(func(from int, e Edge) { m.add(from, e.To, e.Weight) })
	return m
}

// appendDoc appends one document to site s of dg (a new site when s is
// one past the last), the way a GraphDelta.Apply does: by AddDoc, and
// overwriting nothing.
func appendDoc(dg *DocGraph, s SiteID) DocID {
	if int(s) == len(dg.Sites) {
		dg.Sites = append(dg.Sites, Site{Name: fmt.Sprintf("new%d.example", s)})
	}
	d := dg.AddDoc(fmt.Sprintf("http://%s/late%d", dg.Sites[s].Name, dg.NumDocs()), s)
	dg.G.AddLink(int(d), int(dg.Sites[s].Docs[0]))
	return d
}

// TestSiteRunsFollowCloneHistory: through a history of CloneCOW and
// append-only edits — documents appended to an old site, to the site of
// the last run, then a new site, then several at once — every clone's
// runs name every document's site and place, the clone starts on its
// parent's run table clipped and shares it until a new run copies it out
// (extending the last run writes nothing), and the parent's runs, its
// document count and its answers stay as they were.
func TestSiteRunsFollowCloneHistory(t *testing.T) {
	root := benchDocGraph(4, 6, 71)
	checkSiteRuns(t, "root", root)

	edits := []struct {
		name  string
		sites func(dg *DocGraph) []SiteID
	}{
		{"old site", func(dg *DocGraph) []SiteID { return []SiteID{1, 1} }},
		{"last run's site", func(dg *DocGraph) []SiteID { return []SiteID{dg.SiteOf(DocID(dg.NumDocs() - 1))} }},
		{"new site", func(dg *DocGraph) []SiteID {
			s := SiteID(len(dg.Sites))
			return []SiteID{s, s, s}
		}},
		{"several", func(dg *DocGraph) []SiteID { return []SiteID{2, SiteID(len(dg.Sites)), 2, 0} }},
		{"links only", func(dg *DocGraph) []SiteID { return nil }},
	}
	parent := root
	for _, e := range edits {
		before, docs := slices.Clone(parent.runs), parent.NumDocs()
		clone := parent.CloneCOW()
		if len(clone.runs) != len(before) || cap(clone.runs) != len(before) || &clone.runs[0] != &parent.runs[0] {
			t.Fatalf("%s: the clone does not start on its parent's runs, clipped", e.name)
		}
		for _, s := range e.sites(clone) {
			appendDoc(clone, s)
		}
		clone.G.AddLink(0, 1)
		clone.Dedupe()
		checkSiteRuns(t, e.name, clone)
		if shared, added := &clone.runs[0] == &parent.runs[0], len(clone.runs) > len(before); shared == added {
			t.Fatalf("%s: runs shared with the parent = %v after %d runs were added", e.name, shared, len(clone.runs)-len(before))
		}
		for s := range clone.Sites {
			sub, _ := clone.LocalSubgraph(SiteID(s))
			sameDigraph(t, sub, mapLocalSubgraph(clone, SiteID(s)))
		}
		if !slices.Equal(parent.runs, before) || parent.NumDocs() != docs {
			t.Fatalf("%s: the parent's runs became %v over %d documents, were %v over %d", e.name, parent.runs, parent.NumDocs(), before, docs)
		}
		checkSiteRuns(t, e.name+" (parent)", parent)
		parent = clone
	}
	checkSiteRuns(t, "root, at the end", root)
}

// TestSiteRunsCost logs what the run table costs a document, from a web
// whose sites are one run each — a crawl's layout — to one whose sites
// interleave document by document: the worst case, one 8-byte run a
// document where a site column cost 4. On each, the table is as long as
// the runs, a decoded copy holds exactly that, and SiteOf, LocalOf, the
// local subgraphs and the SiteGraph are the plain column's.
func TestSiteRunsCost(t *testing.T) {
	const docs, sites = 6000, 20
	for _, tc := range []struct {
		name string
		site func(d int) int
		runs int
	}{
		{"one run a site", func(d int) int { return d * sites / docs }, sites},
		{"two runs a site", func(d int) int { return d * 2 * sites / docs % sites }, 2 * sites},
		{"interleaved", func(d int) int { return d % sites }, docs},
	} {
		dg := &DocGraph{G: NewDigraph(0), Sites: make([]Site, sites)}
		for s := range dg.Sites {
			dg.Sites[s].Name = fmt.Sprintf("s%d.example", s)
		}
		col, m := make([]SiteID, docs), edgeModel{}
		for d := range col {
			col[d] = SiteID(tc.site(d))
			dg.AddDoc(fmt.Sprintf("http://s%d.example/%d", col[d], d), col[d])
		}
		for d := range docs {
			for _, to := range []int{(d + 1) % docs, (d + sites) % docs, d * 7919 % docs} {
				dg.G.AddLink(d, to)
				m.add(d, to, 1)
			}
		}
		var file bytes.Buffer
		if err := EncodeBinary(&file, dg); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeBinary(&file)
		if err != nil {
			t.Fatal(err)
		}
		size := int(unsafe.Sizeof(siteRun{}))
		t.Logf("%s: %d runs over %d documents in %d sites: %.3f bytes a document decoded (a site column: 4)",
			tc.name, len(back.runs), docs, sites, float64(cap(back.runs)*size)/docs)
		if len(dg.runs) != tc.runs || cap(back.runs) != tc.runs {
			t.Errorf("%s: %d runs built, %d decoded (capacity %d), want %d", tc.name, len(dg.runs), len(back.runs), cap(back.runs), tc.runs)
		}
		checkAgainstColumn(t, tc.name, dg, col, m)
		checkAgainstColumn(t, tc.name+", decoded", back, col, m)
	}
}

// FuzzSiteRuns: a random history of AddDoc — new sites, the last run's
// site extended, any older site interleaved — across a chain of CloneCOW
// relatives, each generation frozen when it is cloned. The head and every
// frozen generation must be, to the end, the web of the plain per-document
// site column and links the test kept for it: SiteOf, LocalOf, each
// site's LocalIndex and local subgraph and the SiteGraph's rows
// (checkAgainstColumn), and each frozen run table as it stood when the
// generation was cloned — no clone ever writes its parent. Every two
// bytes are one step: an operation and its argument.
func FuzzSiteRuns(f *testing.F) {
	f.Add([]byte{1, 0, 2, 1, 2, 3, 1, 0, 3, 0, 4, 7})
	f.Add([]byte{1, 0, 1, 0, 3, 0, 0, 0, 3, 1, 2, 0, 0, 0, 1, 0, 3, 2, 0x82, 5})
	f.Add([]byte{1, 0, 1, 0, 1, 0, 3, 0, 3, 1, 3, 2, 3, 0, 3, 1, 3, 2, 0, 0, 3, 0, 0, 0, 2, 0})
	f.Add([]byte{0, 0, 1, 1, 0, 0, 2, 2, 0, 0, 1, 3, 0x84, 1})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		type generation struct {
			dg   *DocGraph
			col  []SiteID
			m    edgeModel
			runs []siteRun
		}
		dg := &DocGraph{G: NewDigraph(0)}
		var col []SiteID
		m := edgeModel{}
		var frozen []generation
		for ; len(data) >= 2 && len(col) < 128; data = data[2:] {
			op, arg := data[0], int(data[1])
			if op%5 == 0 {
				frozen = append(frozen, generation{dg, slices.Clone(col), maps.Clone(m), slices.Clone(dg.runs)})
				dg = dg.CloneCOW()
				continue
			}
			s := SiteID(len(dg.Sites))
			switch {
			case op%5 == 2 && len(col) > 0:
				s = col[len(col)-1]
			case op%5 >= 3 && len(dg.Sites) > 0:
				s = SiteID(arg % len(dg.Sites))
			}
			d := int(appendDoc(dg, s))
			col = append(col, s)
			m.add(d, int(dg.Sites[s].Docs[0]), 1)
			w := 1.0
			if op&0x80 != 0 {
				w = 0.5
			}
			from := arg % (d + 1)
			dg.G.AddEdge(from, d, w)
			m.add(from, d, w)
		}
		checkAgainstColumn(t, "head", dg, col, m)
		for i, g := range frozen {
			if !slices.Equal(g.dg.runs, g.runs) {
				t.Fatalf("generation %d: runs %v, were %v when it was cloned", i, g.dg.runs, g.runs)
			}
			checkAgainstColumn(t, fmt.Sprintf("generation %d", i), g.dg, g.col, g.m)
		}
	})
}

// TestLocalSubgraphAllocsIndependentOfWeb: extracting a 10-document site
// out of a large web allocates by the site — not by the web — whether
// the site is one run or spread over the web, and the index it returns
// is the roster itself.
func TestLocalSubgraphAllocsIndependentOfWeb(t *testing.T) {
	const web, small = 120_000, 10
	for _, spread := range []bool{false, true} {
		dg := &DocGraph{G: NewDigraph(web), Sites: []Site{{Name: "small"}, {Name: "rest"}}}
		for d := range web {
			s := SiteID(1)
			if spread && d%(web/small) == 7 || !spread && d >= web/2 && d < web/2+small {
				s = 0
			}
			dg.AddDoc("", s)
		}
		roster := dg.Sites[0].Docs
		if len(roster) != small {
			t.Fatalf("the small site has %d documents, want %d", len(roster), small)
		}
		for i, d := range roster {
			dg.G.AddLink(int(d), int(roster[(i+1)%small]))
			dg.G.AddLink(int(d), int(roster[(i+3)%small]))
			dg.G.AddLink(int(d), int(d)+1) // leaves the site
		}
		if err := dg.Validate(); err != nil {
			t.Fatal(err)
		}
		dg.Dedupe()

		// TotalAlloc is process-wide, so the window must hold nothing but
		// the call: the collector is held off (a cycle flushes the
		// allocation caches, moving TotalAlloc by more than the call
		// allocates), and so are other Ps (restarting the world after
		// ReadMemStats may start a thread, whose runtime structures are
		// heap objects) — testing.AllocsPerRun pins one P too.
		var m0, m1 runtime.MemStats
		gcPercent, procs := debug.SetGCPercent(-1), runtime.GOMAXPROCS(1)
		runtime.ReadMemStats(&m0)
		sub, idx := dg.LocalSubgraph(0)
		runtime.ReadMemStats(&m1)
		debug.SetGCPercent(gcPercent)
		runtime.GOMAXPROCS(procs)
		got := m1.TotalAlloc - m0.TotalAlloc
		t.Logf("spread=%v: extracting %d documents of %d allocated %d bytes", spread, small, web, got)
		if got > 2048 {
			t.Errorf("spread=%v: extracting a %d-document site allocated %d bytes; the web has %d documents", spread, small, got, web)
		}
		if idx.Len() != small || cap(idx.ToGlobal) != small || &idx.ToGlobal[0] != &roster[0] {
			t.Errorf("spread=%v: the index is not the roster, aliased and clipped", spread)
		}
		sameDigraph(t, sub, mapLocalSubgraph(dg, 0))
	}
}
