package graph

// The seeded test web, its relayout with interleaved sites, the
// round-trip comparison, the map-built reference extraction and the
// live-heap reading, lent to the external tests, which may import the
// packages built on this one.
var (
	BenchDocGraph      = benchDocGraph
	Interleave         = interleave
	AssertSameDocGraph = assertSameDocGraph
	MapLocalSubgraph   = mapLocalSubgraph
	AssertSameDigraph  = sameDigraph
	LiveHeap           = liveHeap
)

// DropTransition forgets g's cached transition matrix, so that the next
// TransitionMatrix call builds one.
func DropTransition(g *Digraph) { g.trans = nil }

// ListedBytes returns the bytes a listed weight takes in g's packed base:
// 2 or 8.
func ListedBytes(g *Digraph) int {
	if g.base.w16 != nil {
		return 2
	}
	return 8
}

// WidenListed returns a deep copy of g whose base holds its listed
// weights as float64 whatever their values: a web of link counts in the
// form it is not stored in.
func WidenListed(g *Digraph) *Digraph {
	c := g.Clone()
	c.base.w, c.base.w16 = c.base.weights(), nil
	return c
}
