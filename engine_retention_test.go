package lmmrank

import (
	"context"
	"runtime"
	"testing"

	"lmmrank/internal/graph"
	"lmmrank/internal/webgen"
)

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestPreparedEngineRetention pins what a serving snapshot keeps beside
// the DocGraph it was built on: each intra-site link once, in the pull
// form the kernels read (12 bytes), plus per-document pointers and
// vectors (≈ 23 bytes measured, the graph's 4-byte local column among
// them and 28 while every chain kept a uniform vector; a site's index
// aliases its roster, it does not copy it). Retained subgraph copies,
// the row half of the per-site matrices and append slack in the SiteGraph
// used to make it 80 bytes per link on this web; the budget is set so
// that any one more copy of the links — 12 bytes each, in pull form or as
// adjacency — breaks it.
func TestPreparedEngineRetention(t *testing.T) {
	dg := webgen.Generate(webgen.Default()).Graph
	links, docs := dg.G.NumEdges(), dg.NumDocs()
	before := liveHeap()
	eng, err := NewLocalEngine(dg, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(context.Background(), Query{TopK: 10}); err != nil {
		t.Fatal(err)
	}
	retained := int64(liveHeap()) - int64(before)
	budget := int64(16*links + 72*docs)
	t.Logf("%d docs, %d links: engine retains %d bytes (%.1f per link all told), budget %d",
		docs, links, retained, float64(retained)/float64(links), budget)
	intra := 0
	dg.G.EachEdgeAll(func(from int, e graph.Edge) {
		if dg.SiteOf(DocID(from)) == dg.SiteOf(DocID(e.To)) {
			intra++
		}
	})
	t.Logf("%d intra-site links at 12 bytes leave %.1f bytes per document", intra, float64(retained-12*int64(intra))/float64(docs))
	if retained > budget {
		t.Errorf("a prepared engine retains %d bytes beside its graph, budget %d (16 B/link + 72 B/doc)", retained, budget)
	}
	runtime.KeepAlive(eng)
	runtime.KeepAlive(dg)
}
