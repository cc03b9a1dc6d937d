package graph

import (
	"fmt"
	"runtime"
	"testing"
)

// checkLocalColumn fails unless LocalOf names every document's position
// in its own roster.
func checkLocalColumn(t *testing.T, what string, dg *DocGraph) {
	t.Helper()
	for s, site := range dg.Sites {
		for i, d := range site.Docs {
			if got := dg.LocalOf(d); got != i {
				t.Fatalf("%s: LocalOf(%d) = %d, want %d (site %d)", what, d, got, i, s)
			}
		}
	}
	if len(dg.local) != len(dg.Docs) {
		t.Fatalf("%s: column covers %d of %d documents", what, len(dg.local), len(dg.Docs))
	}
}

// appendDoc appends one document to site s of dg (a new site when s is
// one past the last), the way a GraphDelta.Apply does: by appending to
// Docs, to the roster and to the digraph, and overwriting nothing.
func appendDoc(dg *DocGraph, s SiteID) DocID {
	d := DocID(len(dg.Docs))
	if int(s) == len(dg.Sites) {
		dg.Sites = append(dg.Sites, Site{Name: fmt.Sprintf("new%d.example", s)})
	}
	dg.Docs = append(dg.Docs, Doc{URL: fmt.Sprintf("http://%s/late%d", dg.Sites[s].Name, d), Site: s})
	dg.Sites[s].Docs = append(dg.Sites[s].Docs, d)
	dg.G.EnsureNodes(len(dg.Docs))
	dg.G.AddLink(int(d), int(dg.Sites[s].Docs[0]))
	return d
}

// TestLocalColumnFollowsCloneHistory: through a history of CloneCOW and
// append-only edits — documents appended to an old site, then a new site,
// then both at once — every clone's column is right after extending over
// just the documents appended since, shares its parent's prefix by
// pointer until the first append copies it out, and leaves the parent's
// column, its length included, as it was.
func TestLocalColumnFollowsCloneHistory(t *testing.T) {
	root := benchDocGraph(4, 6, 71)
	// One non-ascending roster: positions must come from the roster, not
	// from document order.
	r := root.Sites[2].Docs
	r[0], r[4] = r[4], r[0]
	checkLocalColumn(t, "root", root)

	edits := []struct {
		name  string
		sites func(dg *DocGraph) []SiteID
	}{
		{"old site", func(dg *DocGraph) []SiteID { return []SiteID{1, 1} }},
		{"new site", func(dg *DocGraph) []SiteID {
			s := SiteID(len(dg.Sites))
			return []SiteID{s, s, s}
		}},
		{"both", func(dg *DocGraph) []SiteID { return []SiteID{2, SiteID(len(dg.Sites)), 2, 0} }},
		{"links only", func(dg *DocGraph) []SiteID { return nil }},
	}
	parent := root
	for _, e := range edits {
		before := append([]uint32(nil), parent.local...)
		clone := parent.CloneCOW()
		if len(clone.local) != len(before) || cap(clone.local) != len(before) || &clone.local[0] != &parent.local[0] {
			t.Fatalf("%s: the clone does not start on its parent's column, clipped", e.name)
		}
		sites := e.sites(clone)
		for _, s := range sites {
			appendDoc(clone, s)
		}
		clone.G.AddLink(0, 1)
		clone.Dedupe()
		checkLocalColumn(t, e.name, clone)
		// No append, no copy: an edit of links alone keeps sharing.
		if shared := &clone.local[0] == &parent.local[0]; shared != (len(sites) == 0) {
			t.Fatalf("%s: column shared with the parent = %v after %d appended documents", e.name, shared, len(sites))
		}
		for s := range clone.Sites {
			sub, _ := clone.LocalSubgraph(SiteID(s))
			sameDigraph(t, sub, mapLocalSubgraph(clone, SiteID(s)))
		}
		if len(parent.local) != len(before) || len(parent.Docs) != len(before) {
			t.Fatalf("%s: the parent's column grew to %d (docs %d), was %d", e.name, len(parent.local), len(parent.Docs), len(before))
		}
		for d, want := range before {
			if parent.local[d] != want {
				t.Fatalf("%s: the parent's local[%d] became %d, was %d", e.name, d, parent.local[d], want)
			}
		}
		checkLocalColumn(t, e.name+" (parent)", parent)
		parent = clone
	}
	checkLocalColumn(t, "root, at the end", root)
}

// TestLocalSubgraphAllocsIndependentOfWeb: extracting a 10-document site
// out of a large web allocates by the site — not by the web — whatever
// the order of its roster, and the index it returns is the roster
// itself. (A non-ascending roster used to cost, and its index to keep,
// a 4-byte entry per document of the web.)
func TestLocalSubgraphAllocsIndependentOfWeb(t *testing.T) {
	const web, small = 120_000, 10
	for _, ascending := range []bool{true, false} {
		dg := &DocGraph{G: NewDigraph(web), Docs: make([]Doc, web), Sites: []Site{{Name: "small"}, {Name: "rest"}}}
		for d := range dg.Docs {
			s := SiteID(1)
			if d%(web/small) == 7 {
				s = 0
			}
			dg.Docs[d].Site = s
			dg.Sites[s].Docs = append(dg.Sites[s].Docs, DocID(d))
		}
		roster := dg.Sites[0].Docs
		if len(roster) != small {
			t.Fatalf("the small site has %d documents, want %d", len(roster), small)
		}
		if !ascending {
			roster[1], roster[8] = roster[8], roster[1]
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

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sub, idx := dg.LocalSubgraph(0)
		runtime.ReadMemStats(&m1)
		got := m1.TotalAlloc - m0.TotalAlloc
		t.Logf("ascending=%v: extracting %d documents of %d allocated %d bytes", ascending, small, web, got)
		if got > 2048 {
			t.Errorf("ascending=%v: extracting a %d-document site allocated %d bytes; the web has %d documents", ascending, small, got, web)
		}
		if idx.Len() != small || cap(idx.ToGlobal) != small || &idx.ToGlobal[0] != &roster[0] {
			t.Errorf("ascending=%v: the index is not the roster, aliased and clipped", ascending)
		}
		sameDigraph(t, sub, mapLocalSubgraph(dg, 0))
	}
}
