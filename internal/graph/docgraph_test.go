package graph

import (
	"testing"
)

// buildTinyWeb builds a 2-site, 5-doc graph used across tests:
//
//	site a: a/1 → a/2, a/2 → a/1, a/1 → b/1
//	site b: b/1 → b/2, b/2 → b/3, b/3 → a/1
func buildTinyWeb(t *testing.T) *DocGraph {
	t.Helper()
	b := NewBuilder()
	b.AddLink("http://a.example/1", "http://a.example/2")
	b.AddLink("http://a.example/2", "http://a.example/1")
	b.AddLink("http://a.example/1", "http://b.example/1")
	b.AddLink("http://b.example/1", "http://b.example/2")
	b.AddLink("http://b.example/2", "http://b.example/3")
	b.AddLink("http://b.example/3", "http://a.example/1")
	dg := b.Build()
	if err := dg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return dg
}

func TestBuilderAssignsSitesByHost(t *testing.T) {
	dg := buildTinyWeb(t)
	if dg.NumSites() != 2 {
		t.Fatalf("NumSites = %d, want 2", dg.NumSites())
	}
	if dg.NumDocs() != 5 {
		t.Fatalf("NumDocs = %d, want 5", dg.NumDocs())
	}
	if dg.Sites[0].Name != "a.example" || dg.Sites[1].Name != "b.example" {
		t.Errorf("site names: %q %q", dg.Sites[0].Name, dg.Sites[1].Name)
	}
	if dg.SiteSize(0) != 2 || dg.SiteSize(1) != 3 {
		t.Errorf("site sizes: %d %d", dg.SiteSize(0), dg.SiteSize(1))
	}
}

func TestBuilderIdempotentDocs(t *testing.T) {
	b := NewBuilder()
	d1 := b.AddDoc("http://x.example/p")
	d2 := b.AddDoc("http://x.example/p")
	if d1 != d2 {
		t.Errorf("AddDoc not idempotent: %d vs %d", d1, d2)
	}
	dg := b.Build()
	if dg.NumDocs() != 1 {
		t.Errorf("NumDocs = %d", dg.NumDocs())
	}
}

func TestBuilderExplicitSite(t *testing.T) {
	b := NewBuilder()
	b.AddDocInSite("doc-1", "siteX")
	b.AddDocInSite("doc-2", "siteX")
	b.AddDocInSite("doc-3", "siteY")
	dg := b.Build()
	if dg.NumSites() != 2 || dg.SiteSize(0) != 2 {
		t.Errorf("sites = %d, size(0) = %d", dg.NumSites(), dg.SiteSize(0))
	}
	if err := dg.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSiteOf(t *testing.T) {
	dg := buildTinyWeb(t)
	for _, d := range dg.Sites[1].Docs {
		if dg.SiteOf(d) != 1 {
			t.Errorf("doc %d should be in site 1", d)
		}
	}
}

func TestLocalSubgraph(t *testing.T) {
	dg := buildTinyWeb(t)
	sub, idx := dg.LocalSubgraph(1) // b.example: 3 docs, chain b1→b2→b3
	if sub.NumNodes() != 3 {
		t.Fatalf("local nodes = %d, want 3", sub.NumNodes())
	}
	// Only intra-site edges survive: b1→b2, b2→b3 (b3→a/1 is external).
	if sub.NumEdges() != 2 {
		t.Errorf("local edges = %d, want 2", sub.NumEdges())
	}
	if idx.Len() != 3 {
		t.Errorf("index len = %d", idx.Len())
	}
	// Round-trip local↔global mapping.
	for local, global := range idx.ToGlobal {
		if dg.SiteOf(global) != 1 || dg.LocalOf(global) != local {
			t.Errorf("mapping round-trip failed at local %d", local)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	dg := buildTinyWeb(t)
	dg.runs[0].site = 1 // now site rosters disagree
	if err := dg.Validate(); err == nil {
		t.Error("Validate accepted corrupted site mapping")
	}
}

// TestValidateRefusesBadRosters: a roster that lists a document twice,
// lists one out of order, leaves one out, or lists another site's is
// refused. (Validate used to count a roster's entries and check each
// against the site column, so {1, 1} and {1, 0} for a site of documents 0
// and 1 passed, and LocalOf(0) then read 1.)
func TestValidateRefusesBadRosters(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b []DocID
	}{
		{"a document twice", []DocID{1, 1}, []DocID{2}},
		{"out of order", []DocID{1, 0}, []DocID{2}},
		{"one left out", []DocID{0}, []DocID{2}},
		{"another site's document", []DocID{0, 1, 2}, []DocID{2}},
		{"one in the wrong site", []DocID{0}, []DocID{1, 2}},
	} {
		dg := &DocGraph{G: NewDigraph(0), Sites: []Site{{Name: "a"}, {Name: "b"}}}
		for _, s := range []SiteID{0, 0, 1} {
			dg.AddDoc("", s)
		}
		if err := dg.Validate(); err != nil {
			t.Fatalf("%s: the web as built: %v", tc.name, err)
		}
		dg.Sites[0].Docs, dg.Sites[1].Docs = tc.a, tc.b
		if err := dg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted rosters %v and %v", tc.name, tc.a, tc.b)
		}
	}
}

func TestSiteNameOf(t *testing.T) {
	tests := []struct {
		url, want string
	}{
		{"http://www.epfl.ch/", "www.epfl.ch"},
		{"http://Research.EPFL.ch/research/x?id=1", "research.epfl.ch"},
		{"https://a.example:8080/p", "a.example:8080"},
		{"site7/page3", "site7"},
		{"//host/only", "host"},
	}
	for _, tt := range tests {
		if got := SiteNameOf(tt.url); got != tt.want {
			t.Errorf("SiteNameOf(%q) = %q, want %q", tt.url, got, tt.want)
		}
	}
}

func TestDeriveSiteGraph(t *testing.T) {
	dg := buildTinyWeb(t)
	sg := DeriveSiteGraph(dg, SiteGraphOptions{})
	if sg.NumSites() != 2 {
		t.Fatalf("NumSites = %d", sg.NumSites())
	}
	// Site a: 2 intra edges + 1 to b. Site b: 2 intra + 1 to a.
	if got := sg.SiteLinkCount(0, 0); got != 2 {
		t.Errorf("a→a = %g, want 2", got)
	}
	if got := sg.SiteLinkCount(0, 1); got != 1 {
		t.Errorf("a→b = %g, want 1", got)
	}
	if got := sg.SiteLinkCount(1, 1); got != 2 {
		t.Errorf("b→b = %g, want 2", got)
	}
	if got := sg.SiteLinkCount(1, 0); got != 1 {
		t.Errorf("b→a = %g, want 1", got)
	}
	// Aggregation preserves total edge weight.
	if got, want := sg.TotalWeight(), 6.0; got != want {
		t.Errorf("TotalWeight = %g, want %g", got, want)
	}
}

func TestDeriveSiteGraphDropSelfLoops(t *testing.T) {
	dg := buildTinyWeb(t)
	sg := DeriveSiteGraph(dg, SiteGraphOptions{DropSelfLoops: true})
	if got := sg.SiteLinkCount(0, 0); got != 0 {
		t.Errorf("a→a = %g, want 0 with DropSelfLoops", got)
	}
	if got := sg.TotalWeight(); got != 2 {
		t.Errorf("TotalWeight = %g, want 2 (only inter-site)", got)
	}
}
