package graph

// The seeded test web, the round-trip comparison, the map-built
// reference extraction and the live-heap reading, lent to the external
// tests, which may import the packages built on this one.
var (
	BenchDocGraph      = benchDocGraph
	AssertSameDocGraph = assertSameDocGraph
	MapLocalSubgraph   = mapLocalSubgraph
	AssertSameDigraph  = sameDigraph
	LiveHeap           = liveHeap
)
