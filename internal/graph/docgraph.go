package graph

import (
	"fmt"
	"net/url"
	"slices"
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
	// local is derived: local[d] is d's position in Sites[Docs[d].Site].Docs.
	// It is append-only exactly as Docs and the rosters are, shared with
	// CloneCOW relatives clipped to its length, and never rebuilt: shorter
	// than Docs is the only way it is stale, and localColumn then extends it
	// over the documents appended since.
	local []uint32
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
// every Site.Docs roster alias dg's arrays, Docs and the local column
// clipped to their lengths.
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
		local: slices.Clip(dg.local),
	}
}

// Dedupe readies dg for shared reading: it deduplicates the digraph and
// brings the local column up to date, the two lazily derived pieces
// LocalSubgraph reads. Both are no-ops (not writes) when current, so call
// it once before fanning LocalSubgraph across goroutines.
func (dg *DocGraph) Dedupe() {
	dg.G.Dedupe()
	dg.localColumn()
}

// localColumn returns the local column, first extending it over the
// documents appended since it was last derived: those are the ones at or
// past its length, and — rosters being append-only — they sit at the
// tails of their rosters.
func (dg *DocGraph) localColumn() []uint32 {
	if have := len(dg.local); have < len(dg.Docs) {
		// dg.local is clipped where a COW relative shares it, so this
		// append copies it out first, as an append to Docs does.
		dg.local = append(dg.local, make([]uint32, len(dg.Docs)-have)...)
		for _, site := range dg.Sites {
			for i := len(site.Docs) - 1; i >= 0 && int(site.Docs[i]) >= have; i-- {
				dg.local[site.Docs[i]] = uint32(i)
			}
		}
	}
	return dg.local
}

// LocalOf returns the local index of document d in its own site: its
// position in Sites[SiteOf(d)].Docs. Like Dedupe it derives the local
// column on first use.
func (dg *DocGraph) LocalOf(d DocID) int { return int(dg.localColumn()[d]) }

// LocalSubgraph extracts G^s_d = (V_d(s), E_d(s)): the subgraph of site s
// restricted to edges whose both endpoints are local documents of s (§3.1).
// The returned LocalIndex lists the global DocID of every local node.
//
// Each link costs O(1): the membership test is the Docs[d].Site field and
// the local index of its target one read of the local column, whatever the
// order of the roster, so extraction is O(site) and a pass over all sites
// linear in the web. The graph is readied first (Dedupe: a mutation, so
// call it before fanning LocalSubgraph calls across goroutines); the
// subgraph is written straight into packed columns, inherits the sorted,
// merged rows and skips its own dedupe pass.
func (dg *DocGraph) LocalSubgraph(s SiteID) (*Digraph, *LocalIndex) {
	dg.Dedupe()
	docs, local := dg.Sites[s].Docs, dg.local

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
				p.to[n], p.w[n] = local[to], ws[k]
				n++
			}
		}
	}
	// Parent rows are sorted by ascending global target; when the site
	// roster is ascending too (the builder invariant) the local rows stay
	// sorted and merged, so the subgraph is born deduplicated.
	if !slices.IsSorted(docs) {
		p.mergeRows()
	}
	return &Digraph{base: p, deduped: true}, dg.LocalIndex(s)
}

// LocalIndex returns the index of site s without extracting its
// subgraph: the roster itself, aliased and clipped to its length.
func (dg *DocGraph) LocalIndex(s SiteID) *LocalIndex {
	docs := dg.Sites[s].Docs
	return &LocalIndex{ToGlobal: docs[:len(docs):len(docs)]}
}

// LocalIndex names the documents of one site's subgraph. It holds no
// reference to the DocGraph and no array of its own: ToGlobal is the
// site's roster, which every COW relative of the graph shares, so an
// index retained across Updates costs a slice header. The other direction
// is DocGraph.LocalOf.
type LocalIndex struct {
	// ToGlobal[i] is the DocID of local node i. It aliases Site.Docs as
	// it stood when the index was taken and is read-only; the roster is
	// append-only (DocGraph.CloneCOW), so later documents of the site land
	// past its length and never change what it reads.
	ToGlobal []DocID
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
