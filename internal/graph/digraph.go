// Package graph provides the Web-graph substrate of the paper's §3.1: the
// document-level DocGraph, the site-level SiteGraph derived from it by
// SiteLink counting, per-site local subgraphs G^s_d, transition-matrix
// extraction M(G), and the text and binary graph file formats.
package graph

import (
	"fmt"
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
// A Digraph is not safe for concurrent mutation. Note that Dedupe,
// OutDegree and TransitionMatrix mutate internal state (merging edges,
// caching the transition matrix); share a graph across goroutines only
// after calling Dedupe and TransitionMatrix on it first, so the parallel
// phase is read-only.
type Digraph struct {
	out     [][]Edge
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
	// shared marks adjacency rows whose backing arrays are aliased by a
	// CloneCOW relative (in either direction). A shared row is immutable:
	// AddEdge copies it out (detachRow) before appending, and Dedupe skips
	// it — sound because CloneCOW dedupes first, so every shared row is
	// already sorted and merged. nil (the common case) means no row is
	// shared. Rows past len(shared) are never shared.
	shared []bool
}

// NewDigraph returns a graph with n isolated nodes.
func NewDigraph(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: NewDigraph with negative size %d", n))
	}
	return &Digraph{out: make([][]Edge, n)}
}

// NumNodes returns the number of nodes.
func (g *Digraph) NumNodes() int { return len(g.out) }

// NumEdges returns the number of stored (deduplicated if Dedupe was called)
// edge entries.
func (g *Digraph) NumEdges() int {
	var n int
	for _, es := range g.out {
		n += len(es)
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
	if len(g.out) < n {
		g.trans = nil
		g.version++
	}
	for len(g.out) < n {
		g.out = append(g.out, nil)
	}
}

// AddEdge appends a directed edge with the given weight. Self-loops are
// allowed (a page may link to itself). It panics on out-of-range nodes or
// a weight that is not positive (NaN included: every stored weight is
// > 0, which the SiteLink and transition-matrix builders rely on).
func (g *Digraph) AddEdge(from, to int, weight float64) {
	if from < 0 || from >= len(g.out) || to < 0 || to >= len(g.out) {
		panic(fmt.Sprintf("graph: edge (%d→%d) out of range %d", from, to, len(g.out)))
	}
	if !(weight > 0) {
		panic(fmt.Sprintf("graph: non-positive edge weight %g", weight))
	}
	g.detachRow(from)
	g.out[from] = append(g.out[from], Edge{To: to, Weight: weight})
	g.deduped = false
	g.trans = nil
	g.version++
}

// AddLink adds a unit-weight edge, the common case for one hyperlink.
func (g *Digraph) AddLink(from, to int) { g.AddEdge(from, to, 1) }

// detachRow copies a COW-shared adjacency row into private storage so an
// imminent mutation cannot disturb the relative aliasing its backing.
func (g *Digraph) detachRow(i int) {
	if i < len(g.shared) && g.shared[i] {
		g.out[i] = append([]Edge(nil), g.out[i]...)
		g.shared[i] = false
	}
}

// Dedupe merges parallel edges by summing weights and sorts each adjacency
// list by target. Idempotent; cheap when already deduplicated. COW-shared
// rows are skipped: they were deduplicated before being shared, and
// sorting them in place would corrupt the relative reading the same
// backing array.
func (g *Digraph) Dedupe() {
	if g.deduped {
		return
	}
	for i, es := range g.out {
		if len(es) <= 1 || (i < len(g.shared) && g.shared[i]) {
			continue
		}
		sort.Slice(es, func(a, b int) bool { return es[a].To < es[b].To })
		w := 0
		for k := 1; k < len(es); k++ {
			if es[k].To == es[w].To {
				es[w].Weight += es[k].Weight
			} else {
				w++
				es[w] = es[k]
			}
		}
		g.out[i] = es[:w+1]
	}
	g.deduped = true
}

// OutDegree returns the number of distinct targets of node i (after
// implicit dedupe).
func (g *Digraph) OutDegree(i int) int {
	g.Dedupe()
	return len(g.out[i])
}

// OutWeight returns the total outgoing edge weight of node i.
func (g *Digraph) OutWeight(i int) float64 {
	var s float64
	for _, e := range g.out[i] {
		s += e.Weight
	}
	return s
}

// EachEdge calls fn for every edge leaving node i. Call Dedupe first when
// duplicate entries must be merged.
func (g *Digraph) EachEdge(i int, fn func(e Edge)) {
	for _, e := range g.out[i] {
		fn(e)
	}
}

// EachEdgeAll calls fn(from, e) for every edge in the graph.
func (g *Digraph) EachEdgeAll(fn func(from int, e Edge)) {
	for i, es := range g.out {
		for _, e := range es {
			fn(i, e)
		}
	}
}

// InDegrees returns the in-degree (distinct sources counted once per edge
// entry) of each node. Dedupe first for distinct-source semantics.
func (g *Digraph) InDegrees() []int {
	in := make([]int, len(g.out))
	for _, es := range g.out {
		for _, e := range es {
			in[e.To]++
		}
	}
	return in
}

// Transpose returns the reversed graph.
func (g *Digraph) Transpose() *Digraph {
	t := NewDigraph(len(g.out))
	for i, es := range g.out {
		for _, e := range es {
			t.AddEdge(e.To, i, e.Weight)
		}
	}
	return t
}

// Clone returns a deep copy.
func (g *Digraph) Clone() *Digraph {
	c := NewDigraph(len(g.out))
	for i, es := range g.out {
		c.out[i] = append([]Edge(nil), es...)
	}
	c.deduped = g.deduped
	c.version = g.version
	return c
}

// CloneCOW returns a copy-on-write clone: every adjacency row is shared
// with g by pointer and marked shared on both sides, so the clone costs
// O(nodes) instead of O(edges). Either graph may keep mutating — AddEdge
// detaches (privately copies) a shared row before appending, and Dedupe
// leaves shared rows alone — without ever writing memory the other can
// read, which is what lets an immutable serving snapshot keep answering
// straggler queries while an update mutates the clone off to the side.
// g is deduplicated first so the shared rows are in their final sorted,
// merged form. The clone starts at g's version and advances
// independently; the cached transition matrix carries over (same
// content) until either side mutates.
func (g *Digraph) CloneCOW() *Digraph {
	g.Dedupe()
	n := len(g.out)
	for len(g.shared) < n {
		g.shared = append(g.shared, false)
	}
	c := &Digraph{
		out:     append([][]Edge(nil), g.out...),
		deduped: true,
		trans:   g.trans,
		version: g.version,
		shared:  make([]bool, n),
	}
	for i := 0; i < n; i++ {
		if len(g.out[i]) > 0 {
			g.shared[i] = true
			c.shared[i] = true
		}
	}
	return c
}

// Dangling returns the nodes with no outgoing edges.
func (g *Digraph) Dangling() []int {
	var out []int
	for i, es := range g.out {
		if len(es) == 0 {
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
	n := len(g.out)
	colPtr := make([]int, n+1)
	for _, es := range g.out {
		for _, e := range es {
			colPtr[e.To+1]++
		}
	}
	for j := 0; j < n; j++ {
		colPtr[j+1] += colPtr[j]
	}
	rowIdx := make([]uint32, colPtr[n])
	val := make([]float64, colPtr[n])
	next := append([]int(nil), colPtr[:n]...)
	for i, es := range g.out {
		total := g.OutWeight(i) // every stored weight is > 0
		for _, e := range es {
			p := next[e.To]
			rowIdx[p] = uint32(i)
			val[p] = e.Weight / total
			next[e.To]++
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
func (g *Digraph) Order() int { return len(g.out) }

// EachNonZero implements matrix.Sparsity.
func (g *Digraph) EachNonZero(i int, fn func(col int)) {
	for _, e := range g.out[i] {
		if e.Weight > 0 {
			fn(e.To)
		}
	}
}

var _ matrix.Sparsity = (*Digraph)(nil)
