package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/url"
	"slices"
	"strings"
)

// SiteID identifies a Web site within a DocGraph.
type SiteID int

// DocID identifies a Web document within a DocGraph.
type DocID int

// Site is the metadata of one Web site.
type Site struct {
	Name string
	// Docs lists the documents of the site in ascending DocID order.
	Docs []DocID
}

// DocGraph is the paper's G_D(V_D, E_D): a directed graph of Web documents
// together with the site(d) mapping that induces the SiteGraph. Build one
// incrementally with a Builder or AddDoc, or load one with Read, ReadText
// or DecodeBinary.
type DocGraph struct {
	// G holds the document-level link structure; node d is document d.
	G *Digraph
	// Sites holds per-site metadata indexed by SiteID.
	Sites []Site

	// The per-document columns, pointer-free and indexed by DocID: site[d]
	// is site(d); urls holds every URL front-coded in DocID order (see
	// AddDoc); restarts[i] is the offset in urls of document
	// i·restartEvery, whose entry shares no prefix. AddDoc is their one
	// writer, DecodeBinary builds them whole, and like the rosters they are
	// append-only and shared with CloneCOW relatives clipped to their
	// lengths.
	site     []uint32
	urls     []byte
	restarts []int
	// local is derived: local[d] is d's position in its site's roster. It
	// lives under the same contract, and is never rebuilt: shorter than
	// site is the only way it is stale, and localColumn then extends it
	// over the documents appended since.
	local []uint32
}

// restartEvery is how many documents share one restart of the URL arena:
// URL decodes at most restartEvery-1 predecessors, and a restart costs a
// full URL and an index entry. On web-paper 16 holds the arena to 4.7 MiB
// at 163 ns a URL (8: 5.7 MiB, 138 ns; 32: 4.2 MiB, 206 ns).
const restartEvery = 16

// NumDocs returns N_D, the total number of documents.
func (dg *DocGraph) NumDocs() int { return len(dg.site) }

// NumSites returns N_S, the total number of sites.
func (dg *DocGraph) NumSites() int { return len(dg.Sites) }

// SiteOf returns the site of document d (the paper's site(d)).
func (dg *DocGraph) SiteOf(d DocID) SiteID { return SiteID(dg.site[d]) }

// SiteSize returns n_s = size(s), the number of local documents of site s.
func (dg *DocGraph) SiteSize(s SiteID) int { return len(dg.Sites[s].Docs) }

// AddDoc appends a document with the given URL to site s and returns its
// DocID, the next one: it extends the site column, the URL arena, the
// site's roster and the digraph's nodes, and overwrites nothing, so it is
// how a GraphDelta.Apply adds a document to a copy-on-write clone. Site s
// must exist; add a site by appending to Sites first.
//
// The URL is stored front-coded against its predecessor's:
// uvarint(length of the prefix they share), uvarint(length of the rest),
// then the rest — with nothing shared at every restartEvery-th document,
// so that URL never decodes far.
func (dg *DocGraph) AddDoc(url string, s SiteID) DocID {
	site := &dg.Sites[s]
	d := DocID(len(dg.site))
	shared := 0
	if d%restartEvery == 0 {
		dg.restarts = append(dg.restarts, len(dg.urls))
	} else {
		var buf [128]byte
		prev := dg.appendURL(buf[:0], d-1)
		for shared < len(prev) && shared < len(url) && prev[shared] == url[shared] {
			shared++
		}
	}
	dg.urls = binary.AppendUvarint(dg.urls, uint64(shared))
	dg.urls = binary.AppendUvarint(dg.urls, uint64(len(url)-shared))
	dg.urls = append(dg.urls, url[shared:]...)
	dg.site = append(dg.site, uint32(s))
	site.Docs = append(site.Docs, d)
	dg.G.EnsureNodes(int(d) + 1)
	return d
}

// URL returns the URL of document d, decoded from the arena into a string
// of its own: keeping it keeps nothing of the graph.
func (dg *DocGraph) URL(d DocID) string {
	var buf [128]byte
	return string(dg.appendURL(buf[:0], d))
}

// appendURL appends the URL of document d to dst: from the restart at or
// before d, each entry keeps a prefix of the URL so far and appends the
// rest of its own.
func (dg *DocGraph) appendURL(dst []byte, d DocID) []byte {
	_ = dg.site[d] // d is a document
	start, p := len(dst), dg.restarts[d/restartEvery]
	for i := d - d%restartEvery; ; i++ {
		shared, suffix, next, _ := urlEntry(dg.urls, p)
		dst, p = append(dst[:start+int(shared)], suffix...), next
		if i == d {
			return dst
		}
	}
}

// urlEntry reads the arena entry at urls[p:]: the length of the prefix
// it shares with the previous URL, the rest of it, and the offset just
// past it. The error names the part that does not end within urls (which
// DecodeBinary checks once for the whole arena).
func urlEntry(urls []byte, p int) (shared uint64, suffix []byte, next int, err error) {
	var field [2]uint64
	for i := range field {
		v, n := binary.Uvarint(urls[p:])
		switch {
		case n == 0:
			return 0, nil, 0, errors.New("truncated varint")
		case n < 0:
			return 0, nil, 0, errors.New("overlong varint")
		}
		field[i], p = v, p+n
	}
	if field[1] > uint64(len(urls)-p) {
		return 0, nil, 0, fmt.Errorf("its %d-byte suffix runs past the section", field[1])
	}
	next = p + int(field[1])
	return field[0], urls[p:next], next, nil
}

// Validate checks internal consistency: every document belongs to a valid
// site, site rosters agree with the site column, the digraph has one
// node per document, and every document's and every site's out-weight is
// finite.
func (dg *DocGraph) Validate() error {
	if dg.G == nil {
		return fmt.Errorf("graph: nil digraph")
	}
	nd := dg.NumDocs()
	if dg.G.NumNodes() != nd {
		return fmt.Errorf("graph: %d digraph nodes vs %d docs", dg.G.NumNodes(), nd)
	}
	for d, s := range dg.site {
		if int(s) >= len(dg.Sites) {
			return fmt.Errorf("graph: doc %d has invalid site %d", d, s)
		}
	}
	counted := 0
	for s, site := range dg.Sites {
		for _, d := range site.Docs {
			if int(d) < 0 || int(d) >= nd {
				return fmt.Errorf("graph: site %d lists invalid doc %d", s, d)
			}
			if dg.site[d] != uint32(s) {
				return fmt.Errorf("graph: doc %d recorded in site %d but maps to site %d", d, s, dg.site[d])
			}
			counted++
		}
	}
	if counted != nd {
		return fmt.Errorf("graph: site rosters cover %d docs, have %d", counted, nd)
	}
	// Every out-weight divides its links in the transition matrix, a
	// document's in the web's chain and a site's in the SiteGraph's, so
	// each must be finite. They are sums of weights that are, and stay
	// far below overflow unless the listed weights come near it: the
	// bound costs O(listed links), and only past it is every row summed,
	// in the order TransitionMatrix sums it.
	if dg.G.weightBound() <= math.MaxFloat64/2 {
		return nil
	}
	var c cursor
	for s, site := range dg.Sites {
		var siteW float64
		for _, d := range site.Docs {
			var w float64
			r, e := c.read(dg.G, int(d)), 0
			for k := range r.to {
				w += r.weight(k, &e)
			}
			if math.IsInf(w, 1) {
				return fmt.Errorf("graph: doc %d has out-weight %g", d, w)
			}
			siteW += w
		}
		if math.IsInf(siteW, 1) {
			return fmt.Errorf("graph: site %d has out-weight %g", s, siteW)
		}
	}
	return nil
}

// CloneCOW returns a copy-on-write clone of the whole document graph.
// The digraph shares its packed base with dg by pointer (see
// Digraph.CloneCOW); Sites is a fresh slice of copied elements; the
// per-document columns and every Site.Docs roster alias dg's arrays, the
// columns clipped to their lengths.
// What makes the aliasing safe is that these slices are append-only: an
// AddDoc on the clone copies each column out first (it is clipped), and
// an append to a roster only ever writes at or past every aliasing
// holder's length, where readers of the original (who read strictly below
// their own length) never look — the contract the serving snapshots rely
// on. Overwriting, reordering or truncating a shared roster in place is
// not supported. Nothing of dg is written.
func (dg *DocGraph) CloneCOW() *DocGraph {
	return &DocGraph{
		G:        dg.G.CloneCOW(),
		Sites:    append([]Site(nil), dg.Sites...),
		site:     slices.Clip(dg.site),
		urls:     slices.Clip(dg.urls),
		restarts: slices.Clip(dg.restarts),
		local:    slices.Clip(dg.local),
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
	if have := len(dg.local); have < dg.NumDocs() {
		// dg.local is clipped where a COW relative shares it, so this
		// append copies it out first, as AddDoc's appends do.
		dg.local = append(dg.local, make([]uint32, dg.NumDocs()-have)...)
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
// Each link costs O(1): the membership test is one read of the site column and
// the local index of its target one read of the local column, whatever the
// order of the roster, so extraction is O(site) and a pass over all sites
// linear in the web. The graph is readied first (Dedupe: a mutation, so
// call it before fanning LocalSubgraph calls across goroutines); the
// subgraph is written straight into packed columns, inherits the sorted,
// merged rows and skips its own dedupe pass. The parent's rows are read
// through one cursor, so an ascending roster finds each row's listed
// links with no search.
func (dg *DocGraph) LocalSubgraph(s SiteID) (*Digraph, *LocalIndex) {
	dg.Dedupe()
	docs, local, site := dg.Sites[s].Docs, dg.local, uint32(s)

	// Pass 1: each local node's surviving out-edges give the offsets, and
	// the surviving listed links the size of the listed columns.
	p := &packed{off: make([]int, len(docs)+1)}
	var c cursor
	listed := 0
	for i, d := range docs {
		n := 0
		r := c.read(dg.G, int(d))
		for _, to := range r.to {
			if dg.site[to] == site {
				n++
			}
		}
		for _, q := range r.pos {
			if dg.site[r.to[q-r.at]] == site {
				listed++
			}
		}
		p.off[i+1] = p.off[i] + n
	}

	// Pass 2: fill the columns, weights read in link order.
	p.to = make([]uint32, p.off[len(docs)])
	p.pos, p.w = make([]uint32, 0, listed), make([]float64, 0, listed)
	n := 0
	c = cursor{}
	for _, d := range docs {
		r, e := c.read(dg.G, int(d)), 0
		for k, to := range r.to {
			w := r.weight(k, &e)
			if dg.site[to] == site {
				if w != 1 {
					p.pos, p.w = append(p.pos, uint32(n)), append(p.w, w)
				}
				p.to[n] = local[to]
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
	return b.AddDocInSite(rawurl, SiteNameOf(rawurl))
}

// AddDocInSite registers a document under an explicit site name, for
// generators that control site structure directly.
func (b *Builder) AddDocInSite(rawurl, siteName string) DocID {
	if d, ok := b.docByID[rawurl]; ok {
		return d
	}
	d := b.dg.AddDoc(rawurl, b.siteID(siteName))
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
