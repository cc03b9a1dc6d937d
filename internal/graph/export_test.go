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
