package graph

import (
	"fmt"
	"net/url"
	"sort"
	"strings"
)

// SiteID identifies a Web site within a DocGraph.
type SiteID int

// DocID identifies a Web document within a DocGraph.
type DocID int

// Doc is the metadata of one Web document.
type Doc struct {
	URL  string
	Site SiteID
}

// Site is the metadata of one Web site.
type Site struct {
	Name string
	// Docs lists the documents of the site in ascending DocID order.
	Docs []DocID
}

// DocGraph is the paper's G_D(V_D, E_D): a directed graph of Web documents
// together with the site(d) mapping that induces the SiteGraph. Build one
// incrementally with a Builder or load one with Read, ReadText or DecodeBinary.
type DocGraph struct {
	// G holds the document-level link structure; node i corresponds to
	// Docs[i].
	G *Digraph
	// Docs holds per-document metadata indexed by DocID.
	Docs []Doc
	// Sites holds per-site metadata indexed by SiteID.
	Sites []Site
}

// NumDocs returns N_D, the total number of documents.
func (dg *DocGraph) NumDocs() int { return len(dg.Docs) }

// NumSites returns N_S, the total number of sites.
func (dg *DocGraph) NumSites() int { return len(dg.Sites) }

// SiteOf returns the site of document d (the paper's site(d)).
func (dg *DocGraph) SiteOf(d DocID) SiteID { return dg.Docs[d].Site }

// SiteSize returns n_s = size(s), the number of local documents of site s.
func (dg *DocGraph) SiteSize(s SiteID) int { return len(dg.Sites[s].Docs) }

// Validate checks internal consistency: every document belongs to a valid
// site, site rosters agree with document records, and the digraph has one
// node per document.
func (dg *DocGraph) Validate() error {
	if dg.G == nil {
		return fmt.Errorf("graph: nil digraph")
	}
	if dg.G.NumNodes() != len(dg.Docs) {
		return fmt.Errorf("graph: %d digraph nodes vs %d docs", dg.G.NumNodes(), len(dg.Docs))
	}
	counted := 0
	for s, site := range dg.Sites {
		for _, d := range site.Docs {
			if int(d) < 0 || int(d) >= len(dg.Docs) {
				return fmt.Errorf("graph: site %d lists invalid doc %d", s, d)
			}
			if dg.Docs[d].Site != SiteID(s) {
				return fmt.Errorf("graph: doc %d recorded in site %d but maps to site %d", d, s, dg.Docs[d].Site)
			}
			counted++
		}
	}
	if counted != len(dg.Docs) {
		return fmt.Errorf("graph: site rosters cover %d docs, have %d", counted, len(dg.Docs))
	}
	for d, doc := range dg.Docs {
		if int(doc.Site) < 0 || int(doc.Site) >= len(dg.Sites) {
			return fmt.Errorf("graph: doc %d has invalid site %d", d, doc.Site)
		}
	}
	return nil
}

// CloneCOW returns a copy-on-write clone of the whole document graph.
// The digraph shares its packed base with dg by pointer (see
// Digraph.CloneCOW); Sites is a fresh slice of copied elements; Docs and
// every Site.Docs roster alias dg's arrays, Docs clipped to its length.
// What makes the aliasing safe is that these slices are append-only: an
// append to the clone's Docs copies the array out first (it is clipped),
// and an append to a roster only ever writes at or past every aliasing
// holder's length, where readers of the original (who read strictly below
// their own length) never look — the contract the serving snapshots rely
// on. Overwriting, reordering or truncating a shared Docs or roster in
// place is not supported. Nothing of dg is written.
func (dg *DocGraph) CloneCOW() *DocGraph {
	n := len(dg.Docs)
	return &DocGraph{
		G:     dg.G.CloneCOW(),
		Docs:  dg.Docs[:n:n],
		Sites: append([]Site(nil), dg.Sites...),
	}
}

// LocalSubgraph extracts G^s_d = (V_d(s), E_d(s)): the subgraph of site s
// restricted to edges whose both endpoints are local documents of s (§3.1).
// The returned LocalIndex maps between global DocIDs and the compact local
// node indices of the subgraph.
//
// The site membership test is the O(1) Docs[d].Site field — no
// hashing. Local indices come from a dense table when the site is a
// large fraction of the graph (the table amortizes), or binary search
// over the ascending roster otherwise, so extraction never does
// O(graph) work for a small site. The parent graph is deduplicated
// first (a mutation — dedupe before fanning LocalSubgraph calls across
// goroutines); the subgraph is written straight into packed columns,
// inherits the sorted, merged rows and skips its own dedupe pass.
func (dg *DocGraph) LocalSubgraph(s SiteID) (*Digraph, *LocalIndex) {
	dg.G.Dedupe()
	docs := dg.Sites[s].Docs
	idx := dg.LocalIndex(s)
	ascending := idx.table == nil
	// Beyond the index's own table (non-ascending rosters), a dense table
	// is worthwhile for the extraction alone when the site covers a
	// sizeable share of the graph; small sites use binary search instead
	// of zeroing an O(graph) slice.
	table := idx.table
	if table == nil && len(docs) >= len(dg.Docs)/8 {
		table = dg.localTable(docs)
	}
	localOf := func(d uint32) uint32 {
		if table != nil {
			return uint32(table[d])
		}
		g := idx.ToGlobal
		lo, hi := 0, len(g)
		for lo < hi {
			mid := (lo + hi) / 2
			if g[mid] < DocID(d) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return uint32(lo)
	}

	// Pass 1: each local node's surviving out-edges give the offsets.
	p := &packed{off: make([]int, len(docs)+1)}
	for i, d := range docs {
		c := 0
		tos, _ := dg.G.row(int(d))
		for _, to := range tos {
			if dg.Docs[to].Site == s {
				c++
			}
		}
		p.off[i+1] = p.off[i] + c
	}

	// Pass 2: fill the two columns.
	p.to = make([]uint32, p.off[len(docs)])
	p.w = make([]float64, p.off[len(docs)])
	n := 0
	for _, d := range docs {
		tos, ws := dg.G.row(int(d))
		for k, to := range tos {
			if dg.Docs[to].Site == s {
				p.to[n], p.w[n] = localOf(to), ws[k]
				n++
			}
		}
	}
	// Parent rows are sorted by ascending global target; when the site
	// roster is ascending too (the builder invariant) the local rows stay
	// sorted and merged, so the subgraph is born deduplicated.
	if !ascending {
		p.mergeRows()
	}
	return &Digraph{base: p, deduped: true}, idx
}

// LocalIndex returns the index of site s without extracting its
// subgraph: the roster itself, aliased and clipped to its length (see
// LocalIndex.ToGlobal), plus the dense table when the roster is not
// ascending (binary search does not apply).
func (dg *DocGraph) LocalIndex(s SiteID) *LocalIndex {
	docs := dg.Sites[s].Docs
	idx := &LocalIndex{ToGlobal: docs[:len(docs):len(docs)]}
	for i := 1; i < len(docs); i++ {
		if docs[i-1] >= docs[i] {
			idx.table = dg.localTable(docs)
			break
		}
	}
	return idx
}

// localTable maps every global document of the roster to its local index
// (documents outside it read 0; callers test membership first).
func (dg *DocGraph) localTable(docs []DocID) []int32 {
	table := make([]int32, len(dg.Docs))
	for i, d := range docs {
		table[d] = int32(i)
	}
	return table
}

// LocalIndex maps between global document IDs and the local node indices
// of one site's subgraph. It holds no reference to the DocGraph and no
// array of its own beyond the rare table: ToGlobal is the site's roster,
// which every COW relative of the graph shares, so an index retained
// across Updates costs a slice header.
type LocalIndex struct {
	// ToGlobal[i] is the DocID of local node i. It aliases Site.Docs as
	// it stood when the index was taken and is read-only; the roster is
	// append-only (DocGraph.CloneCOW), so later documents of the site land
	// past its length and never change what it reads.
	ToGlobal []DocID
	// table is non-nil only for non-ascending rosters, where the binary
	// search over ToGlobal does not apply; it is O(graph).
	table []int32
}

// ToLocal returns the local index of global document d and whether d
// belongs to this site.
func (ix *LocalIndex) ToLocal(d DocID) (int, bool) {
	if int(d) < 0 {
		return 0, false
	}
	if ix.table != nil {
		if int(d) >= len(ix.table) {
			return 0, false
		}
		if i := int(ix.table[d]); i < len(ix.ToGlobal) && ix.ToGlobal[i] == d {
			return i, true
		}
		return 0, false
	}
	i := sort.Search(len(ix.ToGlobal), func(k int) bool { return ix.ToGlobal[k] >= d })
	if i < len(ix.ToGlobal) && ix.ToGlobal[i] == d {
		return i, true
	}
	return 0, false
}

// Len returns the number of local documents.
func (ix *LocalIndex) Len() int { return len(ix.ToGlobal) }

// Builder assembles a DocGraph from URLs and links, assigning documents to
// sites by URL host (scheme-insensitive), the way a crawler would.
type Builder struct {
	dg      DocGraph
	docByID map[string]DocID
	siteBy  map[string]SiteID
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{
		dg:      DocGraph{G: NewDigraph(0)},
		docByID: make(map[string]DocID),
		siteBy:  make(map[string]SiteID),
	}
}

// AddDoc registers a document by URL (idempotent) and returns its DocID.
// The document is assigned to the site named by the URL host.
func (b *Builder) AddDoc(rawurl string) DocID {
	if d, ok := b.docByID[rawurl]; ok {
		return d
	}
	site := b.siteID(SiteNameOf(rawurl))
	d := DocID(len(b.dg.Docs))
	b.dg.Docs = append(b.dg.Docs, Doc{URL: rawurl, Site: site})
	b.dg.Sites[site].Docs = append(b.dg.Sites[site].Docs, d)
	b.dg.G.EnsureNodes(len(b.dg.Docs))
	b.docByID[rawurl] = d
	return d
}

// AddDocInSite registers a document under an explicit site name, for
// generators that control site structure directly.
func (b *Builder) AddDocInSite(rawurl, siteName string) DocID {
	if d, ok := b.docByID[rawurl]; ok {
		return d
	}
	site := b.siteID(siteName)
	d := DocID(len(b.dg.Docs))
	b.dg.Docs = append(b.dg.Docs, Doc{URL: rawurl, Site: site})
	b.dg.Sites[site].Docs = append(b.dg.Sites[site].Docs, d)
	b.dg.G.EnsureNodes(len(b.dg.Docs))
	b.docByID[rawurl] = d
	return d
}

// AddLink records one hyperlink between two documents, registering either
// endpoint if necessary.
func (b *Builder) AddLink(fromURL, toURL string) {
	from := b.AddDoc(fromURL)
	to := b.AddDoc(toURL)
	b.dg.G.AddLink(int(from), int(to))
}

// LinkIDs records one hyperlink between two already-registered documents.
func (b *Builder) LinkIDs(from, to DocID) {
	b.dg.G.AddLink(int(from), int(to))
}

// Doc returns the DocID of a registered URL.
func (b *Builder) Doc(rawurl string) (DocID, bool) {
	d, ok := b.docByID[rawurl]
	return d, ok
}

// Build finalizes and returns the DocGraph. The builder must not be used
// afterwards.
func (b *Builder) Build() *DocGraph {
	b.dg.G.Dedupe()
	dg := b.dg
	b.dg = DocGraph{}
	return &dg
}

func (b *Builder) siteID(name string) SiteID {
	if s, ok := b.siteBy[name]; ok {
		return s
	}
	s := SiteID(len(b.dg.Sites))
	b.dg.Sites = append(b.dg.Sites, Site{Name: name})
	b.siteBy[name] = s
	return s
}

// SiteNameOf extracts the site name of a URL: its host, lower-cased. URLs
// that do not parse fall back to the prefix up to the first '/', so
// synthetic identifiers still group deterministically.
func SiteNameOf(rawurl string) string {
	if u, err := url.Parse(rawurl); err == nil && u.Host != "" {
		return strings.ToLower(u.Host)
	}
	s := rawurl
	if i := strings.Index(s, "//"); i >= 0 {
		s = s[i+2:]
	}
	if i := strings.IndexByte(s, '/'); i >= 0 {
		s = s[:i]
	}
	return strings.ToLower(s)
}
