package graph

// The seeded test web and the round-trip comparison, lent to the
// external tests, which may import the packages built on this one.
var (
	BenchDocGraph      = benchDocGraph
	AssertSameDocGraph = assertSameDocGraph
)
