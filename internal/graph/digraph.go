// Package graph provides the Web-graph substrate of the paper's §3.1: the
// document-level DocGraph, the site-level SiteGraph derived from it by
// SiteLink counting, per-site local subgraphs G^s_d, transition-matrix
// extraction M(G), and the text and binary graph file formats.
package graph

import (
	"fmt"
	"maps"
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
// Storage has one form: a packed base — three columns, immutable from
// the moment a graph points at them and shared by pointer between
// copy-on-write relatives — under a sparse overlay of the rows written
// since the base was packed. Every reader goes through row.
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
	// overlay rows by pointer without a mark on either side.
	patch map[int]row
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
// about overlayRowLinks packed links (two slice headers and a map entry).
// Once its weight, in links, exceeds one in repackShare of the base's
// rows and links, Dedupe packs a new base. A repack copies every link, so
// it has to be rare: at 16 a history of single-row edits to a web of six
// links a row repacks about once per (rows+links)/240 rows written, and
// the overlay never weighs much more than a tenth of the base.
const (
	repackShare     = 16
	overlayRowLinks = 8
)

// row is one adjacency row, a column of targets beside their weights.
type row struct {
	to []uint32
	w  []float64
}

// packed is a whole adjacency in three columns, the ones the graph file
// stores: row i is to[off[i]:off[i+1]] beside w[off[i]:off[i+1]].
type packed struct {
	off []int
	to  []uint32
	w   []float64
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

// row returns row i clipped to its length, so an append cannot run into
// row i+1.
func (p *packed) row(i int) (to []uint32, w []float64) {
	a, b := p.off[i], p.off[i+1]
	return p.to[a:b:b], p.w[a:b:b]
}

// mergeRows sorts and merges every row where it lies and closes the
// gaps. Only for columns no graph points at yet.
func (p *packed) mergeRows() {
	n, rows := 0, p.rows()
	for i := 0; i < rows; i++ {
		to, w := p.row(i)
		r := row{to, w}.merged()
		p.off[i] = n
		copy(p.to[n:], r.to)
		n += copy(p.w[n:], r.w)
	}
	p.off[rows] = n
	p.to, p.w = p.to[:n], p.w[:n]
}

func (r row) Len() int           { return len(r.to) }
func (r row) Less(a, b int) bool { return r.to[a] < r.to[b] }
func (r row) Swap(a, b int) {
	r.to[a], r.to[b] = r.to[b], r.to[a]
	r.w[a], r.w[b] = r.w[b], r.w[a]
}

// merged returns r sorted by target with parallel links summed, and
// clipped to its length. A row already strictly ascending is not written
// (it may be shared); any other was appended to since it was last merged
// and so belongs to one graph alone.
func (r row) merged() row {
	n := len(r.to)
	ascending := true
	for k := 1; k < n && ascending; k++ {
		ascending = r.to[k-1] < r.to[k]
	}
	if !ascending {
		sort.Sort(r)
		w := 0
		for k := 1; k < n; k++ {
			if r.to[k] == r.to[w] {
				r.w[w] += r.w[k]
			} else {
				w++
				r.to[w], r.w[w] = r.to[k], r.w[k]
			}
		}
		n = w + 1
	}
	return row{r.to[:n:n], r.w[:n:n]}
}

func (r row) clone() row { return row{slices.Clone(r.to), slices.Clone(r.w)} }

// NewDigraph returns a graph with n isolated nodes.
func NewDigraph(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: NewDigraph with negative size %d", n))
	}
	return &Digraph{tail: make([]row, n)}
}

// row is the one way to read adjacency: node i's targets and their
// weights, from the overlay if the row was written since packing, from
// the base otherwise. They are read-only. (Two results, not a row: a
// 48-byte struct is passed through memory, two slices in registers, and
// the sweeps call this once per node.)
func (g *Digraph) row(i int) (to []uint32, w []float64) {
	nb := g.base.rows()
	if i >= nb {
		r := g.tail[i-nb]
		return r.to, r.w
	}
	if len(g.patch) != 0 {
		if r, ok := g.patch[i]; ok {
			return r.to, r.w
		}
	}
	return g.base.row(i)
}

// degree returns the number of entries node i's row stores.
func (g *Digraph) degree(i int) int {
	to, _ := g.row(i)
	return len(to)
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
		g.patch = make(map[int]row)
	}
	g.patch[i] = r
}

// eachOverlay replaces every overlay row r by fn(r).
func (g *Digraph) eachOverlay(fn func(r row) row) {
	for i, r := range g.patch {
		g.patch[i] = fn(r)
	}
	for i, r := range g.tail {
		g.tail[i] = fn(r)
	}
}

// NumNodes returns the number of nodes.
func (g *Digraph) NumNodes() int { return g.base.rows() + len(g.tail) }

// NumEdges returns the number of stored (deduplicated if Dedupe was called)
// edge entries.
func (g *Digraph) NumEdges() int {
	n := g.base.links()
	for i, r := range g.patch {
		n += len(r.to) - (g.base.off[i+1] - g.base.off[i])
	}
	for _, r := range g.tail {
		n += len(r.to)
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
// > 0, which the SiteLink and transition-matrix builders rely on).
func (g *Digraph) AddEdge(from, to int, weight float64) {
	if n := g.NumNodes(); from < 0 || from >= n || to < 0 || to >= n {
		panic(fmt.Sprintf("graph: edge (%d→%d) out of range %d", from, to, n))
	}
	if !(weight > 0) {
		panic(fmt.Sprintf("graph: non-positive edge weight %g", weight))
	}
	// A row anyone else can see is clipped, so these appends copy it.
	tos, ws := g.row(from)
	g.setRow(from, row{append(tos, uint32(to)), append(ws, weight)})
	g.deduped = false
}

// AddLink adds a unit-weight edge, the common case for one hyperlink.
func (g *Digraph) AddLink(from, to int) { g.AddEdge(from, to, 1) }

// Dedupe merges parallel edges by summing weights and sorts each adjacency
// list by target, then packs the graph if the overlay has outgrown
// repackShare — always, for a graph built loose by AddEdge. Idempotent,
// and a no-op (not a write) on a graph already deduplicated.
func (g *Digraph) Dedupe() {
	if g.deduped {
		return
	}
	g.eachOverlay(row.merged)
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
	for _, r := range g.tail {
		loose += len(r.to)
	}
	if loose*repackShare <= g.base.rows()+g.base.links() {
		return
	}
	n, links := g.NumNodes(), g.NumEdges()
	p := &packed{off: make([]int, n+1), to: make([]uint32, 0, links), w: make([]float64, 0, links)}
	for i := 0; i < n; i++ {
		to, w := g.row(i)
		p.to = append(p.to, to...)
		p.w = append(p.w, w...)
		p.off[i+1] = len(p.to)
	}
	g.base, g.patch, g.tail = p, nil, nil
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
	_, ws := g.row(i)
	for _, w := range ws {
		s += w
	}
	return s
}

// EachEdge calls fn for every edge leaving node i. Call Dedupe first when
// duplicate entries must be merged.
func (g *Digraph) EachEdge(i int, fn func(e Edge)) {
	tos, ws := g.row(i)
	for k, to := range tos {
		fn(Edge{To: int(to), Weight: ws[k]})
	}
}

// EachEdgeAll calls fn(from, e) for every edge in the graph.
func (g *Digraph) EachEdgeAll(fn func(from int, e Edge)) {
	for i, n := 0, g.NumNodes(); i < n; i++ {
		tos, ws := g.row(i)
		for k, to := range tos {
			fn(i, Edge{To: int(to), Weight: ws[k]})
		}
	}
}

// InDegrees returns the in-degree (distinct sources counted once per edge
// entry) of each node. Dedupe first for distinct-source semantics.
func (g *Digraph) InDegrees() []int {
	in := make([]int, g.NumNodes())
	for i := range in {
		tos, _ := g.row(i)
		for _, to := range tos {
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
		c.base = &packed{slices.Clone(g.base.off), slices.Clone(g.base.to), slices.Clone(g.base.w)}
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
		c.eachOverlay(row.clone)
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
// The matrix is assembled directly in the pull form matrix.CSR retains:
// count in-degrees, then scatter the rows in ascending source order.
// Because Dedupe leaves every adjacency list sorted and merged, each
// column receives every source at most once and in ascending order — the
// order a row-major build followed by a transpose would give, so the
// multiply sums the same terms in the same order. No row arrays, no
// triple round-trip, no re-sort. The matrix is cached until the next
// mutation; callers share the returned value and must treat it as
// read-only.
func (g *Digraph) TransitionMatrix() *matrix.CSR {
	if g.trans != nil {
		return g.trans
	}
	g.Dedupe()
	n := g.NumNodes()
	colPtr := make([]int, n+1)
	for i := 0; i < n; i++ {
		tos, _ := g.row(i)
		for _, to := range tos {
			colPtr[to+1]++
		}
	}
	for j := 0; j < n; j++ {
		colPtr[j+1] += colPtr[j]
	}
	rowIdx := make([]uint32, colPtr[n])
	val := make([]float64, colPtr[n])
	next := append([]int(nil), colPtr[:n]...)
	for i := 0; i < n; i++ {
		tos, ws := g.row(i)
		var total float64 // every stored weight is > 0
		for _, w := range ws {
			total += w
		}
		for k, to := range tos {
			p := next[to]
			rowIdx[p] = uint32(i)
			val[p] = ws[k] / total
			next[to]++
		}
	}
	g.trans = matrix.NewCSRFromColumns(n, colPtr, rowIdx, val)
	return g.trans
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
	tos, _ := g.row(i)
	for _, to := range tos {
		fn(int(to))
	}
}

var _ matrix.Sparsity = (*Digraph)(nil)
