// Package graph provides the Web-graph substrate of the paper's §3.1: the
// document-level DocGraph, the site-level SiteGraph derived from it by
// SiteLink counting, per-site local subgraphs G^s_d, transition-matrix
// extraction M(G), and the text and binary graph file formats.
package graph

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"lmmrank/internal/matrix"
)

// Edge is one weighted directed edge. Weight counts link multiplicity
// (several hyperlinks from one page to the same target accumulate).
type Edge struct {
	To     int
	Weight float64
}

// Digraph is a weighted directed graph over nodes 0..N-1 with adjacency
// stored per source node. The zero value is an empty graph; grow it with
// EnsureNodes and AddEdge.
//
// Storage has one form: a packed base — six columns, immutable from
// the moment a graph points at them and shared by pointer between
// copy-on-write relatives — under a sparse overlay of the rows written
// since the base was packed. A base link is 2 bytes, its target's
// distance from its source; the few links farther than an int16 reaches
// are listed apart, position and target, and so are the few whose weight
// is not 1, position and weight — the weight in 2 bytes when every
// listed one is a whole link count (matrix.NarrowValue), as float64
// otherwise — so a weight reads back exactly as it was added. Every
// reader goes through one accessor, cursor.read, which decodes a base
// row into the cursor's own scratch.
//
// A Digraph is not safe for concurrent mutation. Note that Dedupe,
// OutDegree and TransitionMatrix mutate internal state (merging and
// packing edges, caching the transition matrix); share a graph across
// goroutines only after calling Dedupe and TransitionMatrix on it first,
// so the parallel phase is read-only.
type Digraph struct {
	// base holds every row as of the last packing, sorted and merged.
	// Nothing writes it again: CloneCOW, Rederive and LocalSubgraph hand
	// the pointer on, and a graph that needs other content gets a new one.
	// nil is the empty base.
	base *packed
	// patch holds the base rows rewritten since (AddEdge, Rederive), tail
	// the rows of the nodes past the base (EnsureNodes). While deduped is
	// set every one of them is sorted, merged and clipped to its length,
	// so appending to any row — overlay or base — copies it out first:
	// that is all the copy-on-write there is, and why relatives may share
	// overlay rows by pointer without a mark on either side. A patched
	// row is held by pointer, so reading it copies no row out of the map,
	// and is never written once installed: relatives share it.
	patch map[int]*row
	tail  []row
	// deduped says no row was appended to since the last Dedupe.
	deduped bool
	// trans caches TransitionMatrix; any mutation (AddEdge, EnsureNodes
	// growth) invalidates it.
	trans *matrix.CSR
	// version counts content mutations (AddEdge, EnsureNodes growth).
	// Consumers that precompute derived structure (lmm.Ranker, the
	// distributed coordinator's shard digests) record it at build time and
	// compare later, turning the mutate-after-precompute footgun into a
	// detectable error instead of silently stale results. Dedupe and
	// TransitionMatrix do not advance it: they reorganize storage without
	// changing the graph's content.
	version uint64
}

// The overlay stays small beside the base: a clone copies it, a reader
// of a patched graph pays a map lookup per row, and a row in it weighs
// about overlayRowLinks packed links (three slice headers and a map
// entry). Once its weight, in links, exceeds one in repackShare of the
// base's rows and links, Dedupe packs a new base. A repack copies every
// link, so it has to be rare: at 16 a history of single-row edits to a
// web of six links a row repacks about once per (rows+links)/240 rows
// written, and the overlay never weighs much more than a tenth of the
// base.
const (
	repackShare     = 16
	overlayRowLinks = 8
)

// row is one adjacency row: its targets, and apart from them the links
// whose weight is not 1 — link pos[e]-at of the row weighs w[e], pos
// ascending — every other link weighing exactly 1. No listed weight is
// 1: every writer lists exactly the links of weight other than 1. An
// overlay row counts its links from at = 0; a base row, whose listed
// positions are read in place, from its first link's position in the
// base. A row's weights are float64 whatever width its base stores them
// at: a base row's are the base's own when they are float64, decoded
// into the cursor's scratch when they are 2 bytes.
type row struct {
	to  []uint32
	pos []uint32
	w   []float64
	at  uint32
}

// weight returns the weight of link k, e being the number of the row's
// listed links before k: a reader walking k up from 0 with e from 0
// reads every weight with one comparison. Its receiver is a pointer, as
// is every reader's row: a row is ten words, and a walk that copied one
// per row or per link would spend more on the copies than on the links.
func (r *row) weight(k int, e *int) float64 {
	if *e < len(r.pos) && r.pos[*e]-r.at == uint32(k) {
		*e++
		return r.w[*e-1]
	}
	return 1
}

// listed returns the listed form of the dense weights w: the positions
// of the weights other than 1, and those weights.
func listed(w []float64) ([]uint32, []float64) {
	n := 0
	for _, x := range w {
		if x != 1 {
			n++
		}
	}
	pos, mul := make([]uint32, 0, n), make([]float64, 0, n)
	for k, x := range w {
		if x != 1 {
			pos, mul = append(pos, uint32(k)), append(mul, x)
		}
	}
	return pos, mul
}

// packed is a whole adjacency in six columns, the four the graph file
// stores with its targets narrowed: row i is links off[i] to off[i+1],
// and link k of row i targets i+to[k] — its distance from its source, 2
// bytes — unless it is a far link, one whose distance does not fit an
// int16: those few are listed apart, far link f being link farPos[f]
// (strictly ascending) and targeting farTo[f], its to entry 0. The web's
// sites are runs of consecutive documents and most links stay in their
// site, so nearly every link is near (95 % of a 462 000-document web's).
// Link pos[e] weighs w16[e] when every listed weight is a whole number
// from 2 to 65 535 (matrix.NarrowValue: a crawl's duplicate-link counts,
// 2 bytes each) and w[e] otherwise — pos strictly ascending, the other
// weight column nil — the links not listed weighing exactly 1: exactly
// the excPos/excMul form of matrix.CSR, its width picked the same way,
// from the values, with no knob. A link's place is a uint32 in every
// column, as in a row's at, so a base holds at most 2³²−1 links.
type packed struct {
	off    []uint32
	to     []int16
	farPos []uint32
	farTo  []uint32
	pos    []uint32
	w      []float64
	w16    []uint16
}

func (p *packed) rows() int {
	if p == nil {
		return 0
	}
	return len(p.off) - 1
}

func (p *packed) links() int {
	if p == nil {
		return 0
	}
	return len(p.to)
}

// near returns a link of row i targeting to as its distance from i, and
// whether that is the link — false for a far link. The distance is taken
// modulo 2³², as read adds it back.
func near(i int, to uint32) (int16, bool) {
	d := int32(to - uint32(i))
	return int16(d), d == int32(int16(d))
}

// push appends a link of row i, targeting to: near, or far as 0 with its
// target listed.
func (p *packed) push(i int, to uint32) {
	d, ok := near(i, to)
	if !ok {
		p.farPos, p.farTo = append(p.farPos, uint32(len(p.to))), append(p.farTo, to)
		d = 0
	}
	p.to = append(p.to, d)
}

// allNarrow reports whether a base stores the listed weights w at 2
// bytes each: whether every one is matrix.NarrowValue.
func allNarrow(w []float64) bool {
	for _, x := range w {
		if !matrix.NarrowValue(x) {
			return false
		}
	}
	return true
}

// weigh makes w the listed weights: a new 2-byte column of its values
// when allNarrow, w itself otherwise.
func (p *packed) weigh(w []float64) {
	p.w, p.w16 = w, nil
	if allNarrow(w) {
		p.w, p.w16 = nil, make([]uint16, len(w))
		for e, x := range w {
			p.w16[e] = uint16(x)
		}
	}
}

// weights returns the listed weights as float64: the column itself when
// it is stored so, a new one widened from the 2-byte column otherwise.
func (p *packed) weights() []float64 {
	if p.w16 == nil {
		return p.w
	}
	w := make([]float64, len(p.w16))
	for e, x := range p.w16 {
		w[e] = float64(x)
	}
	return w
}

// clip gives every column the writers append to exactly its length, a
// copy when it has room to spare: spare room is memory every graph on
// the base keeps alive.
func (p *packed) clip() {
	p.to, p.farPos, p.farTo = exact(p.to), exact(p.farPos), exact(p.farTo)
}

// exact returns s, or a copy of it with no room to spare if it has some.
func exact[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	return fresh(s)
}

// fresh returns a copy of s with no room to spare, never nil.
func fresh[T any](s []T) []T {
	c := make([]T, len(s))
	copy(c, s)
	return c
}

// span returns the run [e, end) of the strictly ascending positions pos
// that lie in [a, b). e is where a walk over ascending rows has got to —
// the end the previous row's span returned — so the walk finds each
// row's run with no search, as the CSR kernels carry their exception
// cursor; a row read out of turn (a skipped row, a step back, a lone read
// from 0) costs one binary search.
func span(pos []uint32, e int, a, b uint32) (int, int) {
	if e > 0 && pos[e-1] >= a || e < len(pos) && pos[e] < a {
		e = seek(pos, e, a)
	}
	end := e
	for end < len(pos) && pos[end] < b {
		end++
	}
	return e, end
}

// seek returns the first place in pos at or past a: span's search, out
// of line so that span is inlined.
//
//go:noinline
func seek(pos []uint32, e int, a uint32) int {
	if e > 0 && pos[e-1] >= a {
		e = 0
	}
	return e + sort.Search(len(pos)-e, func(k int) bool { return pos[e+k] >= a })
}

// read makes c's row row i, writing all four of its fields: its targets
// decoded into c's scratch, clipped to their length — so an append to
// them copies them out, as it would a base row's own — its listed
// positions in place, clipped, and its listed weights in place too when
// they are float64, decoded into c's scratch, clipped, when they are 2
// bytes. Its far and listed links are found as span finds them, spelled
// out here so that a walk pays no call for them.
func (p *packed) read(i int, c *cursor) {
	a, b := p.off[i], p.off[i+1]
	dist := p.to[a:b]
	if cap(c.buf) < len(dist) {
		c.buf = make([]uint32, max(len(dist), 2*cap(c.buf)))
	}
	to := c.buf[:len(dist):len(dist)]
	for k, d := range dist {
		to[k] = uint32(i) + uint32(d)
	}
	far, f := p.farPos, c.f
	if f > 0 && far[f-1] >= a || f < len(far) && far[f] < a {
		f = seek(far, f, a)
	}
	for ; f < len(far) && far[f] < b; f++ {
		to[far[f]-a] = p.farTo[f]
	}
	pos, e := p.pos, c.e
	if e > 0 && pos[e-1] >= a || e < len(pos) && pos[e] < a {
		e = seek(pos, e, a)
	}
	end := e
	for end < len(pos) && pos[end] < b {
		end++
	}
	r := &c.r
	r.to, r.pos, r.at = to, pos[e:end:end], a
	switch {
	case p.w16 == nil:
		r.w = p.w[e:end:end]
	case e == end:
		r.w = nil
	default:
		r.w = c.widen(p.w16[e:end])
	}
	c.e, c.f = end, f
}

// widen decodes a base row's 2-byte listed weights into c's scratch and
// returns them, clipped to their length. The scratch starts at
// rowScratch entries, so a fresh cursor does not double its way up from
// its first row's count.
func (c *cursor) widen(w16 []uint16) []float64 {
	if cap(c.wbuf) < len(w16) {
		c.wbuf = make([]float64, max(len(w16), 2*cap(c.wbuf), rowScratch))
	}
	w := c.wbuf[:len(w16):len(w16)]
	for k, x := range w16 {
		w[k] = float64(x)
	}
	return w
}

// wide returns every target in one new column, 4 bytes a link: the
// column the graph file stores.
func (p *packed) wide() []uint32 {
	to := make([]uint32, len(p.to))
	for i := 0; i < p.rows(); i++ {
		for k := p.off[i]; k < p.off[i+1]; k++ {
			to[k] = uint32(i) + uint32(p.to[k])
		}
	}
	for f, q := range p.farPos {
		to[q] = p.farTo[f]
	}
	return to
}

// links sorts a row's targets beside its dense weights.
type links struct {
	to []uint32
	w  []float64
}

func (l links) Len() int           { return len(l.to) }
func (l links) Less(a, b int) bool { return l.to[a] < l.to[b] }
func (l links) Swap(a, b int) {
	l.to[a], l.to[b] = l.to[b], l.to[a]
	l.w[a], l.w[b] = l.w[b], l.w[a]
}

// merge sorts r by target, sums its parallel links and clips it to its
// length, and reports whether that changed r. The arrays of a row already
// strictly ascending are not written (they may be shared); any other was
// appended to since it was last merged and so belongs to one graph alone
// — its targets are sorted in place, its weights listed afresh (a merge
// may make a listed weight 1 or a 1 a listed weight).
func (r *row) merge() bool {
	n := len(r.to)
	ascending := true
	for k := 1; k < n && ascending; k++ {
		ascending = r.to[k-1] < r.to[k]
	}
	if ascending && cap(r.to) == n && cap(r.pos) == len(r.pos) && cap(r.w) == len(r.w) {
		return false
	}
	if !ascending {
		w, e := make([]float64, n), 0
		for k := range w {
			w[k] = r.weight(k, &e)
		}
		sort.Sort(links{r.to, w})
		m := 0
		for k := 1; k < n; k++ {
			if r.to[k] == r.to[m] {
				w[m] += w[k]
			} else {
				m++
				r.to[m], w[m] = r.to[k], w[k]
			}
		}
		n = m + 1
		r.pos, r.w = listed(w[:n])
		r.at = 0
	}
	r.to, r.pos, r.w = r.to[:n:n], slices.Clip(r.pos), slices.Clip(r.w)
	return true
}

// unshare gives r arrays of its own.
func (r *row) unshare() bool {
	r.to, r.pos, r.w = slices.Clone(r.to), slices.Clone(r.pos), slices.Clone(r.w)
	return true
}

// NewDigraph returns a graph with n isolated nodes.
func NewDigraph(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: NewDigraph with negative size %d", n))
	}
	return &Digraph{tail: make([]row, n)}
}

// overlay returns node i's row if it was written since packing, nil
// otherwise.
func (g *Digraph) overlay(i int) *row {
	if nb := g.base.rows(); i >= nb {
		return &g.tail[i-nb]
	}
	if len(g.patch) != 0 {
		return g.patch[i]
	}
	return nil
}

// rowScratch is the first capacity of a cursor's weight scratch: room for
// a typical row's listed weights.
const rowScratch = 16

// cursor is a walk over a graph's rows: the row it read last, its place
// in the base's listed and far links, and the scratch it decodes base
// targets and 2-byte listed weights into. Reading rows through one in
// ascending order finds each row's listed and far links where the last
// row's ended; reading one row alone, through a fresh cursor, costs a
// binary search.
type cursor struct {
	r    row
	e, f int
	buf  []uint32
	wbuf []float64
}

// read is the one way to read adjacency: it makes the cursor's row node
// i's — from the overlay if it was written since packing, decoded from
// the base otherwise — and returns it. The row is read-only, and the
// cursor's own: the next read rewrites all four of its fields, and the
// scratch a base row's targets and weights are in, whichever kind of row
// either was, so nothing of the last row survives into the next.
func (c *cursor) read(g *Digraph, i int) *row {
	if o := g.overlay(i); o != nil {
		r := &c.r
		r.to, r.pos, r.w, r.at = o.to, o.pos, o.w, o.at
	} else {
		g.base.read(i, c)
	}
	return &c.r
}

// degree returns the number of entries node i's row stores.
func (g *Digraph) degree(i int) int {
	if r := g.overlay(i); r != nil {
		return len(r.to)
	}
	return int(g.base.off[i+1] - g.base.off[i])
}

// setRow is the one way to write adjacency: it installs r as node i's
// row, in the overlay.
func (g *Digraph) setRow(i int, r row) {
	g.trans = nil
	g.version++
	if nb := g.base.rows(); i >= nb {
		g.tail[i-nb] = r
		return
	}
	if g.patch == nil {
		g.patch = make(map[int]*row)
	}
	p := r // on the heap, and only on this path
	g.patch[i] = &p
}

// eachOverlay calls fn on every overlay row, keeping what it writes; a
// patched row it is handed is a copy, installed in the shared one's place
// if fn reports it changed the row.
func (g *Digraph) eachOverlay(fn func(r *row) bool) {
	for i, r := range g.patch {
		if c := *r; fn(&c) {
			g.patch[i] = &c
		}
	}
	for i := range g.tail {
		fn(&g.tail[i])
	}
}

// NumNodes returns the number of nodes.
func (g *Digraph) NumNodes() int { return g.base.rows() + len(g.tail) }

// NumEdges returns the number of stored (deduplicated if Dedupe was called)
// edge entries.
func (g *Digraph) NumEdges() int {
	n := g.base.links()
	for i, r := range g.patch {
		n += len(r.to) - int(g.base.off[i+1]-g.base.off[i])
	}
	for i := range g.tail {
		n += len(g.tail[i].to)
	}
	return n
}

// Version returns the graph's content-mutation counter: it advances on
// every AddEdge and on EnsureNodes growth, and is stable across Dedupe
// and TransitionMatrix calls. Two reads returning the same value bracket
// a window with no content mutation.
func (g *Digraph) Version() uint64 { return g.version }

// EnsureNodes grows the graph so that it has at least n nodes.
func (g *Digraph) EnsureNodes(n int) {
	if grow := n - g.NumNodes(); grow > 0 {
		g.tail = append(g.tail, make([]row, grow)...)
		g.trans = nil
		g.version++
	}
}

// AddEdge appends a directed edge with the given weight. Self-loops are
// allowed (a page may link to itself). It panics on out-of-range nodes or
// a weight that is not positive (NaN included: every stored weight is
// > 0, which the SiteLink and transition-matrix builders rely on). It
// panics on +Inf too: the out-weight dividing it would not be finite.
func (g *Digraph) AddEdge(from, to int, weight float64) {
	if n := g.NumNodes(); from < 0 || from >= n || to < 0 || to >= n {
		panic(fmt.Sprintf("graph: edge (%d→%d) out of range %d", from, to, n))
	}
	if !(weight > 0) || math.IsInf(weight, 1) {
		panic(fmt.Sprintf("graph: edge weight %g is not positive and finite", weight))
	}
	// A row anyone else can see is clipped, so these appends copy it; a
	// base row's listed positions count from its place in the base, so
	// they are copied out counting from 0.
	var c cursor
	r := c.read(g, from)
	next := row{to: append(r.to, uint32(to)), pos: r.pos, w: r.w}
	if r.at != 0 && len(r.pos) > 0 {
		next.pos = make([]uint32, len(r.pos), len(r.pos)+1)
		for e, q := range r.pos {
			next.pos[e] = q - r.at
		}
	}
	if weight != 1 {
		next.pos = append(next.pos, uint32(len(r.to)))
		next.w = append(next.w, weight)
	}
	g.setRow(from, next)
	g.deduped = false
}

// AddLink adds a unit-weight edge, the common case for one hyperlink.
func (g *Digraph) AddLink(from, to int) { g.AddEdge(from, to, 1) }

// Dedupe merges parallel edges by summing weights and sorts each adjacency
// list by target, then packs the graph if the overlay has outgrown
// repackShare — always, for a graph built loose by AddEdge. Idempotent,
// and a no-op (not a write) on a graph already deduplicated. A patched
// row the merge leaves as it was keeps its pointer, so a clone's rows
// shared with its parent stay the parent's (DocGraph.ChangedSince).
func (g *Digraph) Dedupe() {
	if g.deduped {
		return
	}
	g.eachOverlay((*row).merge)
	g.deduped = true
	g.repack()
}

// repack packs the deduplicated graph into a new base if its overlay has
// outgrown repackShare.
func (g *Digraph) repack() {
	loose := overlayRowLinks * (len(g.patch) + len(g.tail))
	for _, r := range g.patch {
		loose += len(r.to)
	}
	for i := range g.tail {
		loose += len(g.tail[i].to)
	}
	if loose*repackShare <= g.base.rows()+g.base.links() {
		return
	}
	g.base, g.patch, g.tail = g.pack(), nil, nil
}

// pack returns every row of the graph, base and overlay, in a new packed
// base of exactly their size, its listed weights written at the width
// their values pick.
func (g *Digraph) pack() *packed {
	n, links, listed, narrow := g.NumNodes(), g.NumEdges(), g.numListed(), g.narrowListed()
	p := &packed{
		off: make([]uint32, n+1),
		to:  make([]int16, 0, links),
		pos: make([]uint32, 0, listed),
	}
	if narrow {
		p.w16 = make([]uint16, 0, listed)
	} else {
		p.w = make([]float64, 0, listed)
	}
	var c cursor
	for i := 0; i < n; i++ {
		r := c.read(g, i)
		at := uint32(len(p.to))
		for _, q := range r.pos {
			p.pos = append(p.pos, at+q-r.at)
		}
		if narrow {
			for _, w := range r.w {
				p.w16 = append(p.w16, uint16(w))
			}
		} else {
			p.w = append(p.w, r.w...)
		}
		for _, to := range r.to {
			p.push(i, to)
		}
		p.off[i+1] = uint32(len(p.to))
	}
	p.clip()
	return p
}

// numListed returns the number of listed links the rows store.
func (g *Digraph) numListed() int {
	n := 0
	if g.base != nil {
		n = len(g.base.pos)
	}
	for i, r := range g.patch {
		e, end := span(g.base.pos, 0, g.base.off[i], g.base.off[i+1])
		n += len(r.pos) - (end - e)
	}
	for i := range g.tail {
		n += len(g.tail[i].pos)
	}
	return n
}

// narrowListed reports whether every listed weight the rows store is
// matrix.NarrowValue, in O(listed links): a 2-byte base's are, and a
// float64 base's other than those of rows since rewritten are looked at.
func (g *Digraph) narrowListed() bool {
	for _, r := range g.patch {
		if !allNarrow(r.w) {
			return false
		}
	}
	for i := range g.tail {
		if !allNarrow(g.tail[i].w) {
			return false
		}
	}
	b := g.base
	if b == nil {
		return true
	}
	for e, w := range b.w {
		if !matrix.NarrowValue(w) {
			q := b.pos[e]
			i := sort.Search(b.rows(), func(i int) bool { return b.off[i+1] > q })
			if g.patch[i] == nil {
				return false
			}
		}
	}
	return true
}

// weightBound returns an upper bound on every out-weight and every sum
// of them in O(listed links): each stored link counted at its weight, the
// listed weights of base rows since rewritten included.
func (g *Digraph) weightBound() float64 {
	bound := float64(g.base.links())
	if g.base != nil {
		for _, w := range g.base.w {
			bound += w
		}
		for _, w := range g.base.w16 {
			bound += float64(w)
		}
	}
	add := func(r *row) {
		bound += float64(len(r.to))
		for _, w := range r.w {
			bound += w
		}
	}
	for _, r := range g.patch {
		add(r)
	}
	for i := range g.tail {
		add(&g.tail[i])
	}
	return bound
}

// OutDegree returns the number of distinct targets of node i (after
// implicit dedupe).
func (g *Digraph) OutDegree(i int) int {
	g.Dedupe()
	return g.degree(i)
}

// OutWeight returns the total outgoing edge weight of node i.
func (g *Digraph) OutWeight(i int) float64 {
	var s float64
	var c cursor
	r, e := c.read(g, i), 0
	for k := range r.to {
		s += r.weight(k, &e)
	}
	return s
}

// EachEdge calls fn for every edge leaving node i. Call Dedupe first when
// duplicate entries must be merged.
func (g *Digraph) EachEdge(i int, fn func(e Edge)) {
	var c cursor
	r, e := c.read(g, i), 0
	for k, to := range r.to {
		fn(Edge{To: int(to), Weight: r.weight(k, &e)})
	}
}

// EachEdgeAll calls fn(from, e) for every edge in the graph.
func (g *Digraph) EachEdgeAll(fn func(from int, e Edge)) {
	var c cursor
	for i, n := 0, g.NumNodes(); i < n; i++ {
		r, e := c.read(g, i), 0
		for k, to := range r.to {
			fn(i, Edge{To: int(to), Weight: r.weight(k, &e)})
		}
	}
}

// InDegrees returns the in-degree (distinct sources counted once per edge
// entry) of each node. Dedupe first for distinct-source semantics.
func (g *Digraph) InDegrees() []int {
	in := make([]int, g.NumNodes())
	var c cursor
	for i := range in {
		for _, to := range c.read(g, i).to {
			in[to]++
		}
	}
	return in
}

// Transpose returns the reversed graph.
func (g *Digraph) Transpose() *Digraph {
	t := NewDigraph(g.NumNodes())
	g.EachEdgeAll(func(from int, e Edge) { t.AddEdge(e.To, from, e.Weight) })
	return t
}

// Clone returns a deep copy: no array is shared, not even the base.
func (g *Digraph) Clone() *Digraph {
	c := g.cloneOverlay(true)
	if g.base != nil {
		p := g.base
		c.base = &packed{slices.Clone(p.off), slices.Clone(p.to), slices.Clone(p.farPos), slices.Clone(p.farTo), slices.Clone(p.pos), slices.Clone(p.w), slices.Clone(p.w16)}
	}
	return c
}

// cloneOverlay returns a graph on g's base with its own overlay: its own
// map and tail, and with deep set its own copies of their rows too. It
// reads nothing a reader of a deduplicated g may be writing — not the
// cached transition matrix.
func (g *Digraph) cloneOverlay(deep bool) *Digraph {
	c := &Digraph{
		base:    g.base,
		patch:   maps.Clone(g.patch),
		tail:    slices.Clone(g.tail),
		deduped: g.deduped,
		version: g.version,
	}
	if deep {
		c.eachOverlay((*row).unshare)
	}
	return c
}

// CloneCOW returns a copy-on-write clone: the base is shared with g by
// pointer and only the overlay is copied, so the clone costs O(rows
// written since g was packed) however large the graph — the overlay's
// rows themselves are shared too when g is deduplicated, copied when g
// has rows it may still append to in place. Either graph may keep
// mutating: AddEdge copies a row out before appending (every row the
// other can see is clipped to its length) and Dedupe sorts only rows
// appended to since, so neither ever writes memory the other can read —
// which is what lets an immutable serving snapshot keep answering
// straggler queries while an update mutates the clone off to the side.
// Nothing of g is written, not even a mark: readers of g need no
// synchronization with the cloning (a first TransitionMatrix call is a
// writer of the cache this reads, as the type's comment says). The clone
// is deduplicated, starts at g's version and advances independently; the
// cached transition matrix carries over (same content) until either side
// mutates.
func (g *Digraph) CloneCOW() *Digraph {
	c := g.cloneOverlay(!g.deduped)
	c.Dedupe()
	c.trans = g.trans
	return c
}

// Dangling returns the nodes with no outgoing edges.
func (g *Digraph) Dangling() []int {
	var out []int
	for i, n := 0, g.NumNodes(); i < n; i++ {
		if g.degree(i) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// TransitionMatrix builds the row-stochastic transition matrix M(G) of the
// random-surfer chain: each node distributes probability across its
// out-edges proportionally to edge weight. Dangling rows are left all-zero;
// downstream irreducibility adjustments (package markov, pagerank) decide
// how to treat them, as in the paper's Mˆ(G).
//
// The matrix is assembled directly in the form matrix.CSR retains: a
// link is its source, written at the width the order picks (2 bytes up
// to matrix.MaxNarrowOrder nodes, as on every site's local graph, and 4
// above), node i's divisor is its out-weight (1 when dangling), and the
// few links of weight other than 1 are listed with their weights, so an
// entry reads back as w/out-weight and nothing is divided here — the
// adjacency's own listed form, turned from rows to columns. The divisors
// and listed weights are written at the width their values pick: 2 bytes
// when every one is matrix.NarrowValue (a crawl's duplicate-link counts),
// float64 otherwise. Count in-degrees and listed links per column, and
// check each listed weight and each row's out-weight, then scatter the
// rows in ascending source order, each row's weights read in link order
// through one cursor. Because Dedupe leaves every adjacency list sorted
// and merged, each column receives every source at most once and in
// ascending order — the order a row-major build followed by a transpose
// would give, so the multiply sums the same terms in the same order. No
// row arrays, no triple round-trip, no re-sort, no column built at one
// width and copied to another. The matrix is cached until the next
// mutation; callers share the returned value and must treat it as
// read-only.
func (g *Digraph) TransitionMatrix() *matrix.CSR {
	if g.trans == nil {
		g.Dedupe()
		g.trans = g.transition()
	}
	return g.trans
}

// transition assembles TransitionMatrix's matrix: the first pass counts
// each column's links and listed links and finds the widths, and fill
// writes the columns at them.
func (g *Digraph) transition() *matrix.CSR {
	n := g.NumNodes()
	colPtr := make([]uint32, n+1)
	excs := make([]uint32, n+1) // per column, then each column's next listed link
	narrow := true              // every listed weight and out-weight is matrix.NarrowValue
	var c cursor
	for i := 0; i < n; i++ {
		r := c.read(g, i)
		for _, to := range r.to {
			colPtr[to+1]++
		}
		total := float64(len(r.to) - len(r.pos))
		for e, q := range r.pos {
			excs[r.to[q-r.at]+1]++
			total += r.w[e]
			narrow = narrow && matrix.NarrowValue(r.w[e])
		}
		narrow = narrow && (total == 0 || matrix.NarrowValue(total))
	}
	for j := 0; j < n; j++ {
		colPtr[j+1] += colPtr[j]
		excs[j+1] += excs[j]
	}
	switch wide := n > matrix.MaxNarrowOrder; {
	case !wide && narrow:
		return fill[uint16, uint16](g, colPtr, excs)
	case !wide:
		return fill[uint16, float64](g, colPtr, excs)
	case narrow:
		return fill[uint32, uint16](g, colPtr, excs)
	}
	return fill[uint32, float64](g, colPtr, excs)
}

// fill scatters g's rows into the columns transition counted, its
// sources of width I and its divisors and listed weights of width V.
func fill[I uint16 | uint32, V uint16 | float64](g *Digraph, colPtr, excs []uint32) *matrix.CSR {
	n := g.NumNodes()
	rowIdx := make([]I, colPtr[n])
	outW := make([]V, n)
	excPos := make([]uint32, excs[n])
	excMul := make([]V, excs[n])
	next := append([]uint32(nil), colPtr[:n]...)
	var c cursor
	for i := 0; i < n; i++ {
		r, e := c.read(g, i), 0
		var total float64 // every stored weight is > 0
		for k, to := range r.to {
			w := r.weight(k, &e)
			total += w
			p := next[to]
			rowIdx[p] = I(i)
			next[to]++
			if w != 1 {
				excPos[excs[to]] = p
				excMul[excs[to]] = V(w)
				excs[to]++
			}
		}
		if total == 0 {
			total = 1 // a dangling row's divisor divides nothing
		}
		outW[i] = V(total)
	}
	return matrix.NewCSRFromColumns(n, colPtr, rowIdx, outW, excPos, excMul)
}

// TransitionDense is TransitionMatrix materialized densely, for the small
// matrices of the worked example and unit tests.
func (g *Digraph) TransitionDense() *matrix.Dense {
	return g.TransitionMatrix().Dense()
}

// Order implements matrix.Sparsity so that the structural checks
// (IsIrreducible, Period, IsPrimitive) apply directly to graphs.
func (g *Digraph) Order() int { return g.NumNodes() }

// EachNonZero implements matrix.Sparsity.
func (g *Digraph) EachNonZero(i int, fn func(col int)) {
	var c cursor
	for _, to := range c.read(g, i).to {
		fn(int(to))
	}
}

var _ matrix.Sparsity = (*Digraph)(nil)
