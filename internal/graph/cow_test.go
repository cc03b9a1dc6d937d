package graph

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// cowTestGraph builds a small deduplicated graph with a multi-edge row.
func cowTestGraph(t *testing.T) *Digraph {
	t.Helper()
	g := NewDigraph(4)
	g.AddLink(0, 1)
	g.AddLink(0, 2)
	g.AddLink(1, 2)
	g.AddLink(2, 0)
	g.AddLink(2, 3)
	g.Dedupe()
	return g
}

// rowsOf copies out every row of g, as stored.
func rowsOf(g *Digraph) [][]Edge {
	rows := make([][]Edge, g.NumNodes())
	g.EachEdgeAll(func(from int, e Edge) { rows[from] = append(rows[from], e) })
	return rows
}

// sameArrays reports whether row i of a and of b are one pair of arrays.
func sameArrays(a, b *Digraph, i int) bool {
	at, aw := a.row(i)
	bt, bw := b.row(i)
	return len(at) > 0 && len(bt) > 0 && &at[0] == &bt[0] && &aw[0] == &bw[0]
}

// overlaidGraph returns a packed graph large enough to keep a small
// overlay, with one: a rewritten base row, and two nodes past the base.
func overlaidGraph(t *testing.T) *Digraph {
	t.Helper()
	g := benchDocGraph(10, 40, 61).G
	n := g.NumNodes()
	g.AddLink(3, 5)
	g.EnsureNodes(n + 2)
	g.AddLink(n, 0)
	g.AddLink(n+1, n)
	g.Dedupe()
	if g.base.rows() != n || len(g.patch) != 1 || len(g.tail) != 2 {
		t.Fatalf("want a base of %d rows under 1 patched and 2 appended, have %d under %d and %d",
			n, g.base.rows(), len(g.patch), len(g.tail))
	}
	return g
}

// TestCloneCOWSharesRows pins the memory shape: a COW clone aliases every
// non-empty adjacency row of the parent by pointer — the base as a whole,
// the overlay row by row — and taking it writes nothing of the parent.
func TestCloneCOWSharesRows(t *testing.T) {
	for name, g := range map[string]*Digraph{"packed": cowTestGraph(t), "overlaid": overlaidGraph(t)} {
		c := g.CloneCOW()
		if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: clone shape %d/%d vs parent %d/%d", name,
				c.NumNodes(), c.NumEdges(), g.NumNodes(), g.NumEdges())
		}
		if c.base != g.base {
			t.Errorf("%s: the clone has a base of its own", name)
		}
		for i := 0; i < g.NumNodes(); i++ {
			if g.degree(i) > 0 && !sameArrays(g, c, i) {
				t.Errorf("%s: row %d not shared by pointer", name, i)
			}
		}
		if c.Version() != g.Version() {
			t.Errorf("%s: clone version %d, parent %d", name, c.Version(), g.Version())
		}
	}
}

// TestCloneCOWDetachOnMutation: mutating the clone copies the touched row
// out and leaves every parent row byte-identical; the parent's version
// never moves.
func TestCloneCOWDetachOnMutation(t *testing.T) {
	g := cowTestGraph(t)
	before := g.Clone()
	v := g.Version()

	c := g.CloneCOW()
	c.AddLink(0, 3)
	c.AddLink(2, 1)
	c.Dedupe()
	c.TransitionMatrix()

	if g.Version() != v {
		t.Fatalf("parent version moved: %d -> %d", v, g.Version())
	}
	if !reflect.DeepEqual(rowsOf(g), rowsOf(before)) {
		t.Fatal("parent adjacency changed under a clone mutation")
	}
	if d := c.OutDegree(0); d != 3 {
		t.Errorf("clone OutDegree(0) = %d, want 3", d)
	}
	if d := g.OutDegree(0); d != 2 {
		t.Errorf("parent OutDegree(0) = %d, want 2", d)
	}
}

// TestCloneCOWParentMutationDetaches: the sharing is symmetric — an
// AddEdge on the parent after the clone copies the parent's row out, so
// the clone keeps reading the original contents.
func TestCloneCOWParentMutationDetaches(t *testing.T) {
	g := cowTestGraph(t)
	c := g.CloneCOW()
	cBefore := c.Clone()

	g.AddLink(1, 3)
	g.AddLink(1, 0)
	g.Dedupe()

	if !reflect.DeepEqual(rowsOf(c), rowsOf(cBefore)) {
		t.Fatal("clone adjacency changed under a parent mutation")
	}
	if d := g.OutDegree(1); d != 3 {
		t.Errorf("parent OutDegree(1) = %d, want 3", d)
	}
	if d := c.OutDegree(1); d != 1 {
		t.Errorf("clone OutDegree(1) = %d, want 1", d)
	}
}

// TestCloneCOWTransitionMatrix: both sides build correct (and initially
// identical, cached) transition matrices; after a clone mutation each
// side's matrix reflects its own graph.
func TestCloneCOWTransitionMatrix(t *testing.T) {
	g := cowTestGraph(t)
	gm := g.TransitionMatrix()
	c := g.CloneCOW()
	if c.TransitionMatrix() != gm {
		t.Error("clone did not inherit the cached transition matrix")
	}
	c.AddLink(3, 0)
	if got := c.TransitionMatrix(); got == gm {
		t.Error("clone mutation did not invalidate its transition matrix")
	}
	if g.TransitionMatrix() != gm {
		t.Error("clone mutation invalidated the parent's transition matrix")
	}
	want := g.Clone().TransitionDense()
	if !reflect.DeepEqual(g.TransitionDense(), want) {
		t.Error("parent transition matrix deviates from a deep copy's")
	}
}

// TestCloneCOWChained: clone-of-clone keeps the same guarantees, the
// lineage the engine produces under repeated updates.
func TestCloneCOWChained(t *testing.T) {
	g := cowTestGraph(t)
	c1 := g.CloneCOW()
	c1.AddLink(0, 3)
	c1.Dedupe()
	c2 := c1.CloneCOW()
	c2.AddLink(1, 3)
	c2.Dedupe()

	if d := g.OutDegree(0); d != 2 {
		t.Errorf("root OutDegree(0) = %d, want 2", d)
	}
	if d := c1.OutDegree(1); d != 1 {
		t.Errorf("c1 OutDegree(1) = %d, want 1", d)
	}
	if d := c2.OutDegree(0); d != 3 {
		t.Errorf("c2 OutDegree(0) = %d, want 3", d)
	}
	if d := c2.OutDegree(1); d != 2 {
		t.Errorf("c2 OutDegree(1) = %d, want 2", d)
	}
}

// TestDocGraphCloneCOW covers the roster half: fresh Docs/Sites slices,
// appends to the clone never disturb the parent, and the digraph is
// COW-shared.
func TestDocGraphCloneCOW(t *testing.T) {
	b := NewBuilder()
	b.AddLink("http://a.example/1", "http://a.example/2")
	b.AddLink("http://a.example/2", "http://b.example/1")
	b.AddLink("http://b.example/1", "http://a.example/1")
	dg := b.Build()

	c := dg.CloneCOW()
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	nd, ns := dg.NumDocs(), dg.NumSites()

	// Grow the clone: a new document on site 0 plus a brand-new site.
	c.Docs = append(c.Docs, Doc{URL: "http://a.example/3", Site: 0})
	c.Sites[0].Docs = append(c.Sites[0].Docs, DocID(nd))
	c.Docs = append(c.Docs, Doc{URL: "http://c.example/1", Site: SiteID(ns)})
	c.Sites = append(c.Sites, Site{Name: "c.example", Docs: []DocID{DocID(nd + 1)}})
	c.G.EnsureNodes(len(c.Docs))
	c.G.AddLink(nd, 0)

	if err := c.Validate(); err != nil {
		t.Fatalf("grown clone invalid: %v", err)
	}
	if dg.NumDocs() != nd || dg.NumSites() != ns {
		t.Fatalf("parent grew to %d docs / %d sites", dg.NumDocs(), dg.NumSites())
	}
	if err := dg.Validate(); err != nil {
		t.Fatalf("parent invalid after clone growth: %v", err)
	}
	if got := len(dg.Sites[0].Docs); got != 2 {
		t.Errorf("parent site 0 roster length %d, want 2", got)
	}
}

// TestCloneCOWDoesNotWriteParent: taking a clone, editing it, deduping
// and repacking it, and deriving the next SiteGraph from the last write
// nothing a reader of the parent can see — readers scan the parent's
// rows (a private header over the parent's own base and overlay, so the
// scan is a real one and not the cached matrix) with no synchronization
// while the clones come and go, and one of them builds the SiteGraph's
// transition matrix, lazily, while the next SiteGraph is derived from
// it. Under -race any write is a failure; the sums catch one on any run.
func TestCloneCOWDoesNotWriteParent(t *testing.T) {
	dg := benchDocGraph(12, 40, 62)
	n := dg.NumDocs()
	dg.G.AddLink(3, 5)
	dg.G.EnsureNodes(n + 1)
	dg.Docs = append(dg.Docs, Doc{URL: "http://s0.example/late", Site: 0})
	dg.Sites[0].Docs = append(dg.Sites[0].Docs, DocID(n))
	dg.G.AddLink(n, 0)
	dg.G.Dedupe()
	parent := dg.G
	if len(parent.patch) != 1 || len(parent.tail) != 1 {
		t.Fatalf("the parent has %d patched and %d appended rows, want 1 and 1", len(parent.patch), len(parent.tail))
	}
	sg := DeriveSiteGraph(dg, SiteGraphOptions{})
	want := parent.TransitionMatrix()
	var wantWeight float64
	parent.EachEdgeAll(func(_ int, e Edge) { wantWeight += float64(e.To) * e.Weight })

	stop := make(chan struct{})
	var siteOnce sync.Once // as lmm's core guards its site chain
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var got float64
				parent.EachEdgeAll(func(_ int, e Edge) { got += float64(e.To) * e.Weight })
				if got != wantWeight {
					t.Errorf("a reader summed %g over the parent, want %g", got, wantWeight)
					return
				}
				view := &Digraph{base: parent.base, patch: parent.patch, tail: parent.tail, deduped: true}
				if !reflect.DeepEqual(view.TransitionMatrix(), want) || parent.TransitionMatrix() != want {
					t.Error("a reader built another transition matrix from the parent's rows")
					return
				}
				siteOnce.Do(func() { sg.G.TransitionMatrix() })
			}
		}()
	}

	rng := rand.New(rand.NewSource(63))
	for step := 0; step < 200; step++ {
		work := dg.CloneCOW()
		changed := churn(rng, work)
		work.G.TransitionMatrix()
		sg.Rederive(work, SiteGraphOptions{}, changed)
		// A second generation, so that rows the first clone sealed are
		// shared onward and written next to.
		again := work.CloneCOW()
		churn(rng, again)
	}
	close(stop)
	readers.Wait()
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestOverlayStaysBounded: a long history of single-row updates, each a
// clone of the last with one link added — what Engine.Update does — ends
// on a graph no more than half again as heavy as the same graph packed
// afresh,
// with every row what a model kept on the side says, and with the
// generations it passed through undisturbed.
func TestOverlayStaysBounded(t *testing.T) {
	g := benchDocGraph(50, 100, 64).G
	n := g.NumNodes()
	before := liveHeap()
	model := rowsOf(g)
	type generation struct {
		g    *Digraph
		rows [][]Edge
	}
	var kept []generation
	rng := rand.New(rand.NewSource(65))
	cur := g
	for step := 0; step < 10000; step++ {
		from, to := rng.Intn(n), rng.Intn(n)
		next := cur.CloneCOW()
		next.AddLink(from, to)
		next.Dedupe()
		cur = next

		row := model[from]
		k := 0
		for k < len(row) && row[k].To < to {
			k++
		}
		if k < len(row) && row[k].To == to {
			row = append([]Edge(nil), row...)
			row[k].Weight++
		} else {
			row = append(row[:k:k], append([]Edge{{To: to, Weight: 1}}, row[k:]...)...)
		}
		model[from] = row
		if step%1000 == 500 {
			kept = append(kept, generation{cur, append([][]Edge(nil), model...)})
		}
	}
	if !reflect.DeepEqual(rowsOf(cur), model) {
		t.Fatal("the last generation's rows are not the model's")
	}
	for i, gen := range kept {
		if !reflect.DeepEqual(rowsOf(gen.g), gen.rows) {
			t.Fatalf("kept generation %d changed after it was cloned from", i)
		}
	}
	kept, model = nil, nil
	grown := liveHeap() - before
	fresh := NewDigraph(n)
	cur.EachEdgeAll(func(from int, e Edge) { fresh.AddEdge(from, e.To, e.Weight) })
	fresh.Dedupe()
	packed := liveHeap() - before - grown
	t.Logf("%d nodes, %d links: after 10000 updates the graph holds %d bytes, packed afresh %d (%.2fx)",
		n, cur.NumEdges(), grown, packed, float64(grown)/float64(packed))
	if grown > packed*3/2 {
		t.Errorf("after 10000 single-row updates the graph holds %d bytes, packed afresh %d", grown, packed)
	}
	runtime.KeepAlive(fresh)
	runtime.KeepAlive(cur)
	runtime.KeepAlive(g)
}
