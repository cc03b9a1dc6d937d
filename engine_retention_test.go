package lmmrank

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
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
// the DocGraph it was built on and its solutions (8 bytes a document,
// TestLocalEngineRetention's) once a query that solves every site — a
// damping of its own — has built and kept the per-site chains, apart from
// the idle Ranker clones of its free list (query scratch, not structure:
// TestRankerPoolRetention bounds their number, and the one the test's
// query leaves idle is dropped before the reading): each intra-site link
// once, as its 2-byte source in the pull form the kernels read (a site's
// chain indexes only its own documents), plus per-document pointers,
// factors and vectors (≈ 16.4 bytes measured at GOMAXPROCS 1, 2 and 4,
// the chain's 2-byte out-weight and column offset and the listed links of
// weight other than 1 among them; ≈ 26 while out-weights and weights were
// float64, ≈ 30 while the graph also derived a 4-byte local column here).
// While every source took 4 bytes it was 4 bytes a link budgeted; while
// every link also kept a float64 value, 12 bytes a link and 16 budgeted;
// retained subgraph copies, the row half of the per-site matrices and
// append slack in the SiteGraph used to make it 80 bytes per link on this
// web. The budget is the measured value plus 16 %, so that any one more
// copy of the links — 2 bytes each, in pull form or in any other — breaks
// it, and so do 4-byte sources and float64 out-weights and weights.
func TestPreparedEngineRetention(t *testing.T) {
	dg := webgen.Generate(webgen.Default()).Graph
	links, docs := dg.G.NumEdges(), dg.NumDocs()
	before := liveHeap()
	eng, err := NewLocalEngine(dg, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(context.Background(), Query{TopK: 10, Damping: 0.8}); err != nil {
		t.Fatal(err)
	}
	withIdle := int64(liveHeap()) - int64(before)
	eng.snap.Load().pool.get()
	retained := int64(liveHeap()) - int64(before) - 8*int64(docs)
	t.Logf("the clone the query left idle holds %d bytes of scratch (%.1f per document)", withIdle-retained-8*int64(docs), float64(withIdle-retained-8*int64(docs))/float64(docs))
	budget := int64(2*links + 21*docs)
	t.Logf("%d docs, %d links: beside its solutions the engine retains %d bytes (%.1f per link all told), budget %d",
		docs, links, retained, float64(retained)/float64(links), budget)
	intra := 0
	dg.G.EachEdgeAll(func(from int, e graph.Edge) {
		if dg.SiteOf(DocID(from)) == dg.SiteOf(DocID(e.To)) {
			intra++
		}
	})
	t.Logf("%d intra-site links at 2 bytes leave %.1f bytes per document", intra, float64(retained-2*int64(intra))/float64(docs))
	if retained > budget {
		t.Errorf("an engine with its chains kept retains %d bytes beside its graph and solutions, budget %d (2 B/link + 21 B/doc)", retained, budget)
	}
	runtime.KeepAlive(eng)
	runtime.KeepAlive(dg)
}

// TestLocalEngineRetention pins what a LocalEngine's snapshot keeps
// beside the DocGraph after one query of every shape it composes from its
// solutions but TopK, and again after an Update: TestTopKEngineRetention's
// budget (10 bytes a document, 160 a site and 32 a site link) with no byte
// a link. It holds 8 bytes a document of local solutions beside the site
// layer (≈ 228 KB measured, ≈ 304 KB while the graph derived a 4-byte
// local column) and no top-k index, which only a TopK query builds; the
// construction and the Update solve on chains they drop, and no query
// here needs one.
func TestLocalEngineRetention(t *testing.T) {
	dg := webgen.Generate(webgen.Default()).Graph
	docs, sites := dg.NumDocs(), dg.NumSites()
	ctx := context.Background()
	before := liveHeap()
	eng, err := NewLocalEngine(dg, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	siteLinks := eng.snap.Load().base.SiteGraph().G.NumEdges()
	budget := int64(10*docs + 160*sites + 32*siteLinks)
	check := func(when string) {
		t.Helper()
		retained := int64(liveHeap()) - int64(before)
		t.Logf("%s: %d docs, %d sites, %d site links: the engine retains %d bytes (%.1f a site beside 8 a document), budget %d",
			when, docs, sites, siteLinks, retained, float64(retained-8*int64(docs))/float64(sites), budget)
		if retained > budget {
			t.Errorf("%s: a LocalEngine retains %d bytes beside its graph, budget %d (10 B/doc + 160 B/site + 32 B/site link)", when, retained, budget)
		}
	}
	pers := topkQueries(sites)[1].SitePersonalization
	for _, q := range []Query{{}, {WantLocalRanks: true}, {SitePersonalization: pers}, {ThreeLayer: true}} {
		if _, err := eng.Rank(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if eng.snap.Load().sol.Load().index.Load() != nil {
		t.Fatal("a top-k index was built, and no query asked for a Top table")
	}
	check("queried")
	if err := eng.Update(ctx, GraphDelta{
		Apply: func(dg *DocGraph) error {
			editSite(t, dg, 3)
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	check("updated")
	runtime.KeepAlive(eng)
	runtime.KeepAlive(dg)
}

// TestRankerPoolRetention: a snapshot's free list keeps at most
// GOMAXPROCS idle Ranker clones however many queries ran at once — each
// holds one query's scratch, which a collection does not drop — and a
// query takes an idle clone rather than making one.
func TestRankerPoolRetention(t *testing.T) {
	eng, err := NewLocalEngine(churnTestWeb().Graph, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	procs := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for g := 0; g < 3*procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := eng.Rank(context.Background(), Query{TopK: 10}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	pool := eng.snap.Load().pool
	if n := len(pool.idle); n > procs {
		t.Errorf("%d clones idle after concurrent queries, want at most GOMAXPROCS = %d", n, procs)
	}
	held := make([]*lmm.Ranker, 3*procs)
	for i := range held {
		held[i] = pool.get()
	}
	for _, rk := range held {
		pool.put(rk)
	}
	if n := len(pool.idle); n != procs {
		t.Errorf("%d clones idle after %d were given back, want GOMAXPROCS = %d", n, len(held), procs)
	}
	if rk := pool.get(); !slices.Contains(held, rk) || len(pool.idle) != procs-1 {
		t.Error("get made a clone while one was idle")
	}
}

// TestDistEngineRetention pins what a warm DistEngine and the in-process
// fleet serving it keep beside their graph, per intra-site link: the
// snapshot's solutions and digests, each worker's cache entries — a
// site's chain, its sources, out-weights and listed weights 2 bytes each,
// with no solver scratch and not the subgraph the chain was built from —
// and each connection's frame scratch, at most 4 KiB a direction: 7.0–7.1
// bytes measured on this web at GOMAXPROCS 1, 2 and 4. While a
// connection kept up to 64 KiB of scratch a direction, it was 13.6; while
// out-weights and listed weights were also float64, 15.0; while every
// chain source also took 4 bytes, 17.1. While every entry also kept its
// site's row of the site chain, for the fleet's SiteRank rounds, it was
// 17.5. While every entry kept a solver's two per-document vectors
// beside its chain, it was 20.3 (21.2 while the graph also derived a
// 4-byte local column on the engine's side). While every chain link kept
// a float64 value and each worker entry its subgraph beside its chain,
// it was 42; while the coordinator kept every shard's edge list (24
// bytes a link) as well, 74. The budget is the measured value plus 10 %,
// under the 8.5 of float64 values.
func TestDistEngineRetention(t *testing.T) {
	dg := webgen.Generate(webgen.Default()).Graph
	intra := 0
	dg.G.EachEdgeAll(func(from int, e graph.Edge) {
		if dg.SiteOf(DocID(from)) == dg.SiteOf(DocID(e.To)) {
			intra++
		}
	})
	before := liveHeap()
	cl, err := StartCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	eng, err := NewDistEngine(cl, dg, DistConfig{})
	if err != nil {
		t.Fatal(err)
	}
	warmRanks(t, eng, Query{})
	perLink := float64(int64(liveHeap())-int64(before)) / float64(intra)
	t.Logf("%d docs, %d intra-site links: engine and fleet retain %.1f bytes per intra-site link", dg.NumDocs(), intra, perLink)
	if budget := 7.1 * 1.10; perLink > budget {
		t.Errorf("a warm DistEngine and its fleet retain %.1f bytes per intra-site link, budget %.1f", perLink, budget)
	}
	runtime.KeepAlive(eng)
	runtime.KeepAlive(dg)
}

// TestTopKAnswerRetention: the Top table of an answer is all a caller who
// keeps it keeps — its URLs are strings of their own, not windows into the
// graph's URL storage. (While a decoded graph's URLs were substrings of
// 64 KiB chunks, one table of k URLs could keep k chunks alive after the
// engine and the graph were gone.) Beside the table, under 4 KiB stays;
// the least of three tries is taken, so that what an earlier test's fleet
// still frees or allocates while it winds down is not counted.
func TestTopKAnswerRetention(t *testing.T) {
	var file bytes.Buffer
	if err := WriteGraphBinary(&file, webgen.Generate(webgen.Default()).Graph); err != nil {
		t.Fatal(err)
	}
	decodedTopK(t, file.Bytes(), 10) // first use sets up what every engine shares
	beside := int64(math.MaxInt64)
	for try := 0; try < 3; try++ {
		before := liveHeap()
		top := decodedTopK(t, file.Bytes(), 10)
		retained := int64(liveHeap()) - int64(before)
		if len(top) != 10 {
			t.Fatalf("Top has %d entries, want 10", len(top))
		}
		table := int64(cap(top)) * int64(unsafe.Sizeof(DocScore{}))
		for _, e := range top {
			table += int64(len(e.URL))
		}
		t.Logf("a %d-entry Top table of %d bytes keeps %d bytes beside it", len(top), table, retained-table)
		beside = min(beside, retained-table)
		runtime.KeepAlive(top)
	}
	if beside >= 4<<10 {
		t.Errorf("a kept Top table keeps %d bytes beside itself, want under %d", beside, 4<<10)
	}
	runtime.KeepAlive(&file)
}

// decodedTopK decodes a graph file, serves one Query{TopK: k} from a fresh
// engine over it and returns only the answer's Top: the graph, the engine
// and the rest of the answer are unreachable once it returns.
func decodedTopK(t *testing.T, file []byte, k int) []DocScore {
	t.Helper()
	dg, err := ReadGraphBinary(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewLocalEngine(dg, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Rank(context.Background(), Query{TopK: k})
	if err != nil {
		t.Fatal(err)
	}
	return res.Top
}

// TestTopKEngineRetention pins what a LocalEngine's snapshot keeps beside
// the DocGraph once it was built, served a TopK query, which sorts its
// top-k index, and updated, which patches the index: 8 bytes a document
// of local solutions and 2 of index over them (12 all told while the
// index's positions were 4 bytes, 16 while the graph derived a 4-byte
// local column here), and the site layer — 160 bytes a site and 32 a
// site link budgeted, ≈ 440 a site all told on this web, ≈ 345 measured
// (the SiteGraph and its chain, the site seed, per-site headers, and the
// edited row the Update's clone owns), so that 4-byte positions in the
// index (≈ 37 KB more) break it. No bytes a link: the construction and an Update solve on chains they drop
// (each intra-site link would cost 4 bytes in one, ≈ 460 KB here). The
// first query that solves the sites (a damping of its own) builds and
// keeps every chain; beside its solutions and index the engine then keeps
// no more than TestPreparedEngineRetention's budget allows.
func TestTopKEngineRetention(t *testing.T) {
	dg := webgen.Generate(webgen.Default()).Graph
	links, docs, sites := dg.G.NumEdges(), dg.NumDocs(), dg.NumSites()
	ctx := context.Background()
	before := liveHeap()
	eng, err := NewLocalEngine(dg, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	siteLinks := eng.snap.Load().base.SiteGraph().G.NumEdges()
	budget := int64(10*docs + 160*sites + 32*siteLinks)
	check := func(when string) {
		t.Helper()
		retained := int64(liveHeap()) - int64(before)
		t.Logf("%s: %d docs, %d sites, %d site links: the engine retains %d bytes (%.1f a site beside 10 a document), budget %d",
			when, docs, sites, siteLinks, retained, float64(retained-10*int64(docs))/float64(sites), budget)
		if retained > budget {
			t.Errorf("%s: an engine serving TopK queries retains %d bytes beside its graph, budget %d (10 B/doc + 160 B/site + 32 B/site link)", when, retained, budget)
		}
	}
	check("built")
	if _, err := eng.Rank(ctx, Query{TopK: 10}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Update(ctx, GraphDelta{
		Apply: func(dg *DocGraph) error {
			editSite(t, dg, 3)
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	check("updated")

	if _, err := eng.Rank(ctx, Query{TopK: 10, Damping: 0.8, WantLocalRanks: true}); err != nil {
		t.Fatal(err)
	}
	eng.snap.Load().pool.get() // the idle clone is query scratch, not structure
	beside := int64(liveHeap()) - int64(before) - 10*int64(docs)
	prepared := int64(2*links + 21*docs) // TestPreparedEngineRetention's budget
	t.Logf("with its chains kept the engine retains %d bytes beside its solutions and index, a prepared engine's budget %d", beside, prepared)
	if beside > prepared {
		t.Errorf("with its chains kept the engine retains %d bytes beside its solutions and index, above a prepared engine's budget %d", beside, prepared)
	}
	runtime.KeepAlive(eng)
	runtime.KeepAlive(dg)
}
