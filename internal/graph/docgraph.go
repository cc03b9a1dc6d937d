package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/url"
	"slices"
	"sort"
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

	// runs holds site(d) as the maximal runs of consecutive documents of
	// one site, each ending where the next begins and the last at docs: 8
	// bytes a run, where a column cost 4 a document (a web whose sites
	// interleave document by document pays 8 a document). urls holds every
	// URL front-coded in DocID order (see AddDoc); restarts[i] is the
	// offset in urls of document i·restartEvery. AddDoc is their one
	// writer, DecodeBinary builds them whole, and like the rosters they are
	// append-only and shared with CloneCOW relatives clipped to their
	// lengths (extending the last run writes nothing).
	runs     []siteRun
	urls     []byte
	restarts []int
	docs     int
}

// siteRun is a run's first document and its site.
type siteRun struct{ first, site uint32 }

// restartEvery is how many documents share one restart of the URL arena:
// URL decodes at most restartEvery-1 predecessors, and a restart costs a
// full URL and an index entry. On web-paper 16 holds the arena to 4.7 MiB
// at 163 ns a URL (8: 5.7 MiB, 138 ns; 32: 4.2 MiB, 206 ns).
const restartEvery = 16

// NumDocs returns N_D, the total number of documents.
func (dg *DocGraph) NumDocs() int { return dg.docs }

// NumSites returns N_S, the total number of sites.
func (dg *DocGraph) NumSites() int { return len(dg.Sites) }

// SiteOf returns the site of document d (the paper's site(d)): a binary
// search of the run starts.
func (dg *DocGraph) SiteOf(d DocID) SiteID {
	dg.mustDoc(d)
	runs := dg.runs
	i, n := 0, len(runs)
	for n > 1 {
		// Move to the upper half when its first run starts at or before
		// d, with no branch to mispredict: past is 1 or 0.
		half := n / 2
		past := int(uint64(int64(d)-int64(runs[i+half].first))>>63) ^ 1
		i, n = i+past*half, n-half
	}
	return SiteID(runs[i].site)
}

// mustDoc panics unless d is a document of dg.
func (dg *DocGraph) mustDoc(d DocID) {
	if uint(d) >= uint(dg.docs) {
		panic(fmt.Sprintf("graph: document %d out of range %d", d, dg.docs))
	}
}

// SiteSize returns n_s = size(s), the number of local documents of site s.
func (dg *DocGraph) SiteSize(s SiteID) int { return len(dg.Sites[s].Docs) }

// AddDoc appends a document with the given URL to site s and returns its
// DocID, the next one: it extends the last run or starts one, the URL
// arena, the site's roster and the digraph's nodes, and overwrites
// nothing, so it is how a GraphDelta.Apply adds a document to a
// copy-on-write clone. Site s must exist; add a site by appending to
// Sites first.
//
// The URL is stored front-coded against its predecessor's:
// uvarint(length of the prefix they share), uvarint(length of the rest),
// then the rest — with nothing shared at every restartEvery-th document,
// so that URL never decodes far.
func (dg *DocGraph) AddDoc(url string, s SiteID) DocID {
	site := &dg.Sites[s]
	d := DocID(dg.docs)
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
	if k := len(dg.runs); k == 0 || dg.runs[k-1].site != uint32(s) {
		dg.runs = append(dg.runs, siteRun{first: uint32(d), site: uint32(s)})
	}
	dg.docs++
	site.Docs = append(site.Docs, d)
	dg.G.EnsureNodes(int(d) + 1)
	return d
}

// siteColumn spells the runs out as site(d) for every document d: the
// column the graph file stores.
func (dg *DocGraph) siteColumn() []uint32 {
	col := make([]uint32, dg.docs)
	for i, r := range dg.runs {
		for d := DocID(r.first); d < dg.runEnd(i); d++ {
			col[d] = r.site
		}
	}
	return col
}

// runEnd returns the DocID just past run i.
func (dg *DocGraph) runEnd(i int) DocID {
	if i+1 < len(dg.runs) {
		return DocID(dg.runs[i+1].first)
	}
	return DocID(dg.docs)
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
	dg.mustDoc(d)
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
// site, each site's roster lists exactly its documents in ascending
// order — so the rosters list every document once — the digraph has one
// node per document, and every document's and every site's out-weight
// is finite.
func (dg *DocGraph) Validate() error { return dg.ValidateSince(nil, nil) }

// ValidateSince is Validate's body over what dg wrote since parent, for
// dg a CloneCOW of a valid parent and sites at least its ChangedSince: it
// refuses exactly what Validate refuses, in O(documents appended + the
// sites' links + runs + sites). The documents appended are
// walked against the rosters they extend, and only the listed sites' rows
// are summed. A roster that does not extend parent's in place has every
// document walked. A nil parent is Validate.
func (dg *DocGraph) ValidateSince(parent *DocGraph, sites []SiteID) error {
	if dg.G == nil {
		return fmt.Errorf("graph: nil digraph")
	}
	nd := dg.NumDocs()
	if dg.G.NumNodes() != nd {
		return fmt.Errorf("graph: %d digraph nodes vs %d docs", dg.G.NumNodes(), nd)
	}
	// The runs are right by construction; the rosters must spell them
	// out: walking the runs in DocID order, each document is the next
	// entry of its site's roster. Parent's documents are its rosters'
	// entries, checked already, wherever dg's rosters extend parent's in
	// place (the same array, as long or longer): the walk skips them.
	next := make([]int, len(dg.Sites))
	from := DocID(0)
	if parent != nil && dg.docs >= parent.docs && len(dg.Sites) >= len(parent.Sites) {
		from = DocID(parent.docs)
		for s, site := range parent.Sites {
			if docs := dg.Sites[s].Docs; len(docs) < len(site.Docs) || !sameArray(docs[:len(site.Docs)], site.Docs) {
				from = 0 // a roster not extended in place: walk every document
				clear(next)
				break
			}
			next[s] = len(site.Docs)
		}
	}
	for i, r := range dg.runs {
		if int(r.site) >= len(dg.Sites) {
			return fmt.Errorf("graph: doc %d has invalid site %d", r.first, r.site)
		}
		docs := dg.Sites[r.site].Docs
		for d := max(DocID(r.first), from); d < dg.runEnd(i); d++ {
			if k := next[r.site]; k == len(docs) || docs[k] != d {
				return fmt.Errorf("graph: doc %d is in site %d, whose roster lists %v in its place", d, r.site, docs[k:min(k+1, len(docs))])
			}
			next[r.site]++
		}
	}
	for s, site := range dg.Sites {
		if len(site.Docs) != next[s] {
			return fmt.Errorf("graph: site %d lists %d docs, has %d", s, len(site.Docs), next[s])
		}
	}
	// Every out-weight divides its links in the transition matrix, a
	// document's in the web's chain and a site's in the SiteGraph's, so
	// each must be finite. They are sums of weights that are, and stay
	// far below overflow unless the listed weights come near it: the
	// bound costs O(listed links), and only past it is every row summed,
	// in the order TransitionMatrix sums it. Since parent, only the
	// listed sites' rows are summed.
	if parent == nil {
		if dg.G.weightBound() <= math.MaxFloat64/2 {
			return nil
		}
		for s := range dg.Sites {
			sites = append(sites, SiteID(s))
		}
	}
	var c cursor
	for _, s := range sites {
		var siteW float64
		for _, d := range dg.Sites[s].Docs {
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

// ChangedSince returns, ascending, the sites whose documents or
// out-links dg may have changed since it was cloned from parent
// (CloneCOW): a site whose document's row is not parent's — a patched
// row not parent's by pointer, a row past the base not parent's arrays,
// or a document parent does not have — whose roster is not parent's
// array at parent's length, or that parent does not have. By the
// Partition Theorem these are the sites whose local structure and
// SiteGraph row must be derived afresh; every other site's are parent's.
// It compares by identity, never by content, in O(rows written since the
// base was packed + sites). A dg on another base than parent's — a clone
// repacked since, or a graph that is no clone of parent — has every site
// changed: correct, only slower; so has a dg that is parent itself, whose
// writes in place nothing records, and one with no digraph. A written row
// is told by its targets alone: every row parent can see is clipped, so a
// write to it copies them out.
func (dg *DocGraph) ChangedSince(parent *DocGraph) []SiteID {
	g, pg := dg.G, parent.G
	all := g == nil || g == pg || g.base != pg.base
	changed := make([]bool, len(dg.Sites))
	written := func(d int) {
		if d < dg.docs {
			changed[dg.SiteOf(DocID(d))] = true
		}
	}
	if !all {
		for i, r := range g.patch {
			if pg.patch[i] != r {
				written(i)
			}
		}
		for i := range g.tail {
			if i >= len(pg.tail) || !sameArray(g.tail[i].to, pg.tail[i].to) {
				written(g.base.rows() + i)
			}
		}
	}
	var out []SiteID
	for s, site := range dg.Sites {
		if all || changed[s] || s >= len(parent.Sites) || !sameArray(site.Docs, parent.Sites[s].Docs) {
			out = append(out, SiteID(s))
		}
	}
	return out
}

// sameArray reports whether a and b are one array at one length.
func sameArray[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// CloneCOW returns a copy-on-write clone of the whole document graph.
// The digraph shares its packed base with dg by pointer (see
// Digraph.CloneCOW); Sites is a fresh slice of copied elements; the run
// table, the URL arena and every Site.Docs roster alias dg's arrays, the
// first two clipped to their lengths.
// What makes the aliasing safe is that these slices are append-only: an
// AddDoc on the clone copies the run table and the arena out first (they
// are clipped) or, extending the last run, writes nothing of the table,
// and an append to a roster only ever writes at or past every aliasing
// holder's length, where readers of the original (who read strictly below
// their own length) never look — the contract the serving snapshots rely
// on. Overwriting, reordering or truncating a shared roster in place is
// not supported. Nothing of dg is written.
func (dg *DocGraph) CloneCOW() *DocGraph {
	return &DocGraph{
		G:        dg.G.CloneCOW(),
		Sites:    append([]Site(nil), dg.Sites...),
		runs:     slices.Clip(dg.runs),
		urls:     slices.Clip(dg.urls),
		restarts: slices.Clip(dg.restarts),
		docs:     dg.docs,
	}
}

// Dedupe readies dg for shared reading: it deduplicates the digraph, the
// one lazily derived piece LocalSubgraph reads. It is a no-op (not a
// write) when current, so call it once before fanning LocalSubgraph
// across goroutines.
func (dg *DocGraph) Dedupe() { dg.G.Dedupe() }

// member numbers one site's documents by its runs of consecutive DocIDs:
// local returns a document's place in the roster, or size when it is not
// there — for the first run's documents (every one of a site of one run)
// by one subtraction and no read, for any other by a search of the runs.
type member struct {
	lo, n, size uint32 // the first run's first document and length; the roster's
	runs        []piece
}

// piece is one run of a site: its first document, length and place in
// the roster.
type piece struct{ first, n, at uint32 }

func (dg *DocGraph) member(s SiteID) member {
	docs := dg.Sites[s].Docs
	var runs []piece
	for i, d := range docs {
		if k := len(runs) - 1; k >= 0 && uint32(d) == runs[k].first+runs[k].n {
			runs[k].n++
		} else {
			runs = append(runs, piece{uint32(d), 1, uint32(i)})
		}
	}
	m := member{size: uint32(len(docs)), runs: runs}
	if len(runs) > 0 {
		m.lo, m.n = runs[0].first, runs[0].n
	}
	return m
}

func (m *member) local(t uint32) uint32 {
	if i := t - m.lo; i < m.n {
		return i
	}
	return m.search(t)
}

// search stays out of line, so that local is inlined.
//
//go:noinline
func (m *member) search(t uint32) uint32 {
	if k := sort.Search(len(m.runs), func(k int) bool { return m.runs[k].first > t }); k > 0 {
		if r := m.runs[k-1]; t-r.first < r.n {
			return r.at + t - r.first
		}
	}
	return m.size
}

// LocalOf returns the local index of document d in its own site: its
// position in Sites[SiteOf(d)].Docs, d minus the site's first document
// when the site is one run.
func (dg *DocGraph) LocalOf(d DocID) int {
	docs := dg.Sites[dg.SiteOf(d)].Docs
	if lo := docs[0]; int(docs[len(docs)-1]-lo) == len(docs)-1 {
		return int(d - lo)
	}
	i, _ := slices.BinarySearch(docs, d)
	return i
}

// LocalSubgraph extracts G^s_d = (V_d(s), E_d(s)): the subgraph of site s
// restricted to edges whose both endpoints are local documents of s (§3.1).
// The returned LocalIndex lists the global DocID of every local node.
//
// Each link's target is told and numbered by member, reading nothing in a
// site of one run, so extraction is O(site) and a pass over all sites
// linear in the web. The digraph is deduplicated first (a mutation, so
// call Dedupe before fanning LocalSubgraph calls across goroutines); the
// subgraph is written straight into packed columns and, the roster being
// ascending, inherits the parent's sorted, merged rows, so it is born
// deduplicated. The parent's rows are read through one cursor, so the
// ascending roster finds each row's listed links with no search.
func (dg *DocGraph) LocalSubgraph(s SiteID) (*Digraph, *LocalIndex) {
	dg.G.Dedupe()
	docs, m := dg.Sites[s].Docs, dg.member(s)

	// One walk: each local node's surviving out-edges fill the columns,
	// weights read in link order, and end its row. The targets column
	// starts at the rows' stored length, which bounds what survives; the
	// listed columns start empty, not nil, as an extraction with nothing
	// to list has always returned them.
	bound := 0
	for _, d := range docs {
		bound += dg.G.degree(int(d))
	}
	p := &packed{off: make([]uint32, len(docs)+1), to: make([]int16, 0, bound), pos: []uint32{}, w: []float64{}}
	var c cursor
	for li, d := range docs {
		r, e := c.read(dg.G, int(d)), 0
		for k, to := range r.to {
			w := r.weight(k, &e)
			if i := m.local(to); i < m.size {
				if w != 1 {
					p.pos, p.w = append(p.pos, uint32(len(p.to))), append(p.w, w)
				}
				p.push(li, i)
			}
		}
		p.off[li+1] = uint32(len(p.to))
	}
	p.clip()
	p.pos, p.w = exact(p.pos), exact(p.w)
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
