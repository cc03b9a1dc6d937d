package lmmrank

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"lmmrank/internal/webgen"
)

// topkQueries are the index-eligible shapes: uniform and
// site-personalized two-layer TopK queries at default parameters.
func topkQueries(numSites int) []Query {
	pers := make(Vector, numSites)
	var mass float64
	for i := range pers {
		pers[i] = float64(i%5) + 1
		mass += pers[i]
	}
	for i := range pers {
		pers[i] /= mass
	}
	return []Query{
		{TopK: 25},
		{TopK: 25, SitePersonalization: pers},
	}
}

// TestTopKIndexBitIdentical is the acceptance pin of the maintained
// top-k index: for eligible queries the Top table must be bit-identical
// — scores, documents and tie order — to fully sorting the same served
// DocRank, before and after an Update, and the served DocRank must
// agree to < 1e-9 with the same query solved site by site to Tol 1e-11
// on a second engine given the same Updates.
func TestTopKIndexBitIdentical(t *testing.T) {
	web := churnTestWeb()
	ctx := context.Background()
	eng, err := NewLocalEngine(web.Graph, EngineOptions{})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	plain, err := NewLocalEngine(churnTestWeb().Graph, EngineOptions{})
	if err != nil {
		t.Fatalf("plain NewLocalEngine: %v", err)
	}

	check := func(t *testing.T, round string) {
		t.Helper()
		for qi, q := range topkQueries(eng.DocGraph().NumSites()) {
			before := eng.ServingStats().TopKIndexServes
			res, err := eng.Rank(ctx, q)
			if err != nil {
				t.Fatalf("%s query %d: %v", round, qi, err)
			}
			if got := eng.ServingStats().TopKIndexServes; got != before+1 {
				t.Fatalf("%s query %d bypassed the index (TopKIndexServes %d → %d)", round, qi, before, got)
			}
			want := TopDocs(eng.DocGraph(), res.DocRank, q.TopK)
			if !reflect.DeepEqual(res.Top, want) {
				t.Errorf("%s query %d: index Top differs from the full sort\n got %v\nwant %v", round, qi, res.Top, want)
			}
			solved := q
			solved.Tol = 1e-11
			exact, err := plain.Rank(ctx, solved)
			if err != nil {
				t.Fatalf("%s plain query %d: %v", round, qi, err)
			}
			if d := res.DocRank.L1Diff(exact.DocRank); d >= 1e-9 {
				t.Errorf("%s query %d: ‖index − exact‖₁ = %g, want < 1e-9", round, qi, d)
			}
		}
	}
	check(t, "cold")

	edit := func(e *LocalEngine, sites ...SiteID) {
		t.Helper()
		err := e.Update(ctx, GraphDelta{
			Apply: func(dg *DocGraph) error {
				for _, s := range sites {
					editSite(t, dg, s)
				}
				return nil
			},
		})
		if err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	edit(eng, 3, 7)
	edit(plain, 3, 7)
	check(t, "post-update")
	edit(eng, 3)
	edit(plain, 3)
	check(t, "post-second-update")
}

// TestTopKIndexPatchShares pins the incremental maintenance: the first
// TopK query builds the index, and after an Update clean sites' orders
// and local vectors share their backing arrays with the previous
// snapshot — only the changed sites re-solved and re-sorted.
func TestTopKIndexPatchShares(t *testing.T) {
	web := churnTestWeb()
	ctx := context.Background()
	eng, err := NewLocalEngine(web.Graph, EngineOptions{})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	if eng.snap.Load().sol.Load().index.Load() != nil {
		t.Fatal("construction built an index no query asked for")
	}
	if _, err := eng.Rank(ctx, Query{TopK: 5}); err != nil {
		t.Fatal(err)
	}
	old := eng.snap.Load().sol.Load().index.Load()
	const changed = SiteID(5)
	err = eng.Update(ctx, GraphDelta{
		Apply: func(dg *DocGraph) error {
			editSite(t, dg, changed)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	next := eng.snap.Load().sol.Load().index.Load()
	if next == nil {
		t.Fatal("the Update did not patch the index the previous snapshot had")
	}
	if len(next.order) != len(old.order) {
		t.Fatalf("the index covers %d sites after the Update, %d before", len(next.order), len(old.order))
	}
	for s := range next.order {
		if len(next.order[s]) == 0 {
			continue // nothing to share
		}
		shared := &next.order[s][0] == &old.order[s][0]
		if SiteID(s) == changed && shared {
			t.Errorf("changed site %d shares its order with the old snapshot", s)
		}
		if SiteID(s) != changed && !shared {
			t.Errorf("clean site %d was re-sorted instead of shared", s)
		}
		if carried := sameVector(next.locals[s], old.locals[s]); carried != (SiteID(s) != changed) {
			t.Errorf("site %d (changed: %v): local vector carried by pointer = %v", s, SiteID(s) == changed, carried)
		}
	}
}

// TestTopKIndexTies drives the merge through maximal tie runs: linkless
// sites have uniform local ranks (whole-site tie runs), and two
// structurally identical sites tie cross-site too. The index must
// reproduce the full sort's DocID tie order exactly, including when k
// drains every document.
func TestTopKIndexTies(t *testing.T) {
	b := NewGraphBuilder()
	for s := 0; s < 3; s++ {
		for d := 0; d < 4; d++ {
			b.AddDocInSite(fmt.Sprintf("http://s%d.ex/p%d", s, d), fmt.Sprintf("s%d.ex", s))
		}
	}
	// Site 0 gets internal structure; sites 1 and 2 stay linkless twins.
	b.AddLink("http://s0.ex/p0", "http://s0.ex/p1")
	b.AddLink("http://s0.ex/p1", "http://s0.ex/p0")
	dg := b.Build()

	ctx := context.Background()
	eng, err := NewLocalEngine(dg, EngineOptions{})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	for _, k := range []int{1, 3, 7, 12, 50} {
		res, err := eng.Rank(ctx, Query{TopK: k})
		if err != nil {
			t.Fatalf("Rank k=%d: %v", k, err)
		}
		want := TopDocs(dg, res.DocRank, k)
		if !reflect.DeepEqual(res.Top, want) {
			t.Errorf("k=%d: index Top differs from the full sort\n got %v\nwant %v", k, res.Top, want)
		}
	}
}

// TestTopKIndexIneligibleFallsThrough: every LocalEngine takes the Top
// table from its snapshot's index for every TopK query it composes from
// its solutions — uniform, site-personalized, three-layer, with
// LocalRanks — and for no other: a query with a damping, tolerance or
// budget of its own, or with document-layer personalization, solves
// every site and sorts, and a query without TopK is composed but asks
// the index nothing. None of those builds the index; the first composed
// TopK query does. Every answer is a distribution and its Top the full
// sort's.
func TestTopKIndexIneligibleFallsThrough(t *testing.T) {
	web := churnTestWeb()
	ctx := context.Background()
	eng, err := NewLocalEngine(web.Graph, EngineOptions{})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	docPers := map[SiteID]Vector{0: uniformLike(eng.DocGraph().Sites[0].Docs)}
	sitePers := topkQueries(eng.DocGraph().NumSites())[1].SitePersonalization
	for qi, c := range []struct {
		q               Query
		indexed, solved bool
	}{
		{Query{TopK: 5, Damping: 0.9}, false, true},
		{Query{TopK: 5, Tol: 1e-6}, false, true},
		{Query{TopK: 5, MaxIter: 50}, false, true},
		{Query{TopK: 5, DocPersonalization: docPers}, false, true},
		{Query{}, false, false},
		{Query{TopK: 5, ThreeLayer: true}, true, false},
		{Query{TopK: 5, WantLocalRanks: true}, true, false},
		{Query{TopK: 5, SitePersonalization: sitePers, WantLocalRanks: true}, true, false},
		{Query{}, false, false},
	} {
		built := eng.snap.Load().sol.Load().index.Load() != nil
		before := eng.ServingStats().TopKIndexServes
		res, err := eng.Rank(ctx, c.q)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if indexed := eng.ServingStats().TopKIndexServes > before; indexed != c.indexed {
			t.Errorf("query %d: served from the index = %v, want %v", qi, indexed, c.indexed)
		}
		if nowBuilt := eng.snap.Load().sol.Load().index.Load() != nil; nowBuilt != (built || c.indexed) {
			t.Errorf("query %d: the snapshot holds an index = %v after it, %v before it", qi, nowBuilt, built)
		}
		if solved := solvedSites(res); solved != c.solved {
			t.Errorf("query %d: solved the sites = %v, want %v", qi, solved, c.solved)
		}
		if !res.DocRank.IsDistribution(1e-8) {
			t.Errorf("query %d: DocRank is not a distribution", qi)
		}
		if c.q.TopK == 0 {
			if res.Top != nil {
				t.Errorf("query %d: a Top table of %d rows, none asked for", qi, len(res.Top))
			}
		} else if want := TopDocs(eng.DocGraph(), res.DocRank, c.q.TopK); !reflect.DeepEqual(res.Top, want) {
			t.Errorf("query %d: Top differs from the full sort\n got %v\nwant %v", qi, res.Top, want)
		}
		if c.q.WantLocalRanks != (res.LocalRanks != nil) {
			t.Errorf("query %d: WantLocalRanks %v, got %d local ranks", qi, c.q.WantLocalRanks, len(res.LocalRanks))
		}
	}
}

// solvedSites reports whether an answer solved a site's document layer
// rather than composing the snapshot's solutions.
func solvedSites(res *Result) bool {
	return slices.ContainsFunc(res.LocalIterations, func(it int) bool { return it > 0 })
}

// uniformLike builds a uniform teleport vector the size of a roster.
func uniformLike(roster []DocID) Vector {
	v := make(Vector, len(roster))
	for i := range v {
		v[i] = 1 / float64(len(roster))
	}
	return v
}

// wholeSiteRunWeb is a two-site web whose second site is one tie run as
// long as the site: a.com has 10 documents, b.com has nb, each b page
// links to the next b page round the site (a permutation, so b's local
// ranks are all equal) and to one a page, and nothing links into b.
func wholeSiteRunWeb(nb int) *DocGraph {
	b := NewGraphBuilder()
	const na = 10
	for d := 0; d < na; d++ {
		b.AddDocInSite(fmt.Sprintf("http://a.com/p%d", d), "a.com")
	}
	for d := 0; d < nb; d++ {
		b.AddDocInSite(fmt.Sprintf("http://b.com/p%d", d), "b.com")
	}
	for d := 1; d < na; d++ {
		b.AddLink(fmt.Sprintf("http://a.com/p%d", d), "http://a.com/p0")
	}
	b.AddLink("http://a.com/p0", "http://a.com/p1")
	for d := 0; d < nb; d++ {
		b.AddLink(fmt.Sprintf("http://b.com/p%d", d), fmt.Sprintf("http://b.com/p%d", (d+1)%nb))
		b.AddLink(fmt.Sprintf("http://b.com/p%d", d), fmt.Sprintf("http://a.com/p%d", d%na))
	}
	return b.Build()
}

// TestTopKIndexWholeSiteRuns: a tie run the size of a site must not go
// into the merge heap whole. Two kinds reach that size — a site whose
// local ranks are all equal, and a site of weight exactly 0 (one-hot on
// a.com gives b.com, which nothing links into, πS = 0) — and on both the
// merge pushes at most one candidate a site plus two a popped answer,
// while the table stays the full sort's for every k up to all documents.
func TestTopKIndexWholeSiteRuns(t *testing.T) {
	const nb = 20000
	dg := wholeSiteRunWeb(nb)
	ctx := context.Background()
	eng, err := NewLocalEngine(dg, EngineOptions{})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	for _, tc := range []struct {
		name string
		pers Vector
	}{{"uniform", nil}, {"one-hot a.com", Vector{1, 0}}, {"one-hot b.com", Vector{0, 1}}} {
		for _, k := range []int{1, 10, 11, 10010, dg.NumDocs()} {
			res, err := eng.Rank(ctx, Query{TopK: k, SitePersonalization: tc.pers})
			if err != nil {
				t.Fatalf("%s k=%d: %v", tc.name, k, err)
			}
			if tc.pers != nil && tc.pers[0] == 1 && res.SiteRank[1] != 0 {
				t.Fatalf("%s: πS(b.com) = %g, want exactly 0 — the zero-weight path goes untested", tc.name, res.SiteRank[1])
			}
			if want := TopDocs(dg, res.DocRank, k); !reflect.DeepEqual(res.Top, want) {
				t.Errorf("%s k=%d: index Top differs from the full sort", tc.name, k)
			}
		}
		res, err := eng.Rank(ctx, Query{TopK: 1, SitePersonalization: tc.pers})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		const k = 10
		_, pushes := eng.snap.Load().sol.Load().index.Load().top(dg, res.SiteRank, k)
		if limit := dg.NumSites() + 2*k; pushes > limit {
			t.Errorf("%s: a top-%d merge pushed %d candidates, want at most %d (sites + 2k)", tc.name, k, pushes, limit)
		}
	}
}

// TestTopKIndexRetention pins what the index keeps beside the local
// vectors it orders: one 4-byte position a document, in an array of its
// site's, plus a slice header and allocation rounding a site — 4.43
// bytes a document measured on this web (4.33 while one array held every
// site's). (It was 16 bytes a document while every posting held its own
// DocID and a copy of its score.) The least of three builds
// is taken, so that what an earlier test's fleet still frees or
// allocates while it winds down is not counted.
func TestTopKIndexRetention(t *testing.T) {
	dg := webgen.Generate(webgen.Default()).Graph
	eng, err := NewLocalEngine(dg, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	locals := eng.snap.Load().sol.Load().locals
	docs, sites := dg.NumDocs(), dg.NumSites()
	retained := int64(math.MaxInt64)
	for try := 0; try < 3; try++ {
		before := liveHeap()
		ix := (*topkIndex)(nil).patch(locals, 0)
		retained = min(retained, int64(liveHeap())-int64(before))
		runtime.KeepAlive(ix)
	}
	budget := int64(4*docs + 48*sites)
	t.Logf("%d docs, %d sites: the index retains %d bytes (%.2f a document), budget %d", docs, sites, retained, float64(retained)/float64(docs), budget)
	if retained > budget {
		t.Errorf("the top-k index retains %d bytes, budget %d (4 B/doc + 48 B/site)", retained, budget)
	}
	runtime.KeepAlive(eng)
}

// TestTopKIndexPatchRetention: an index patched until every site but
// one has been re-sorted holds about one index, not the first build's
// orders beside the new ones — at most 1.1 times what a fresh build of
// the same vectors holds. (While a full build put every site's order in
// one array, the one clean site kept all of it alive: 2 times.)
func TestTopKIndexPatchRetention(t *testing.T) {
	dg := webgen.Generate(webgen.Default()).Graph
	eng, err := NewLocalEngine(dg, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	locals := slices.Clone(eng.snap.Load().sol.Load().locals)
	for s := range locals {
		locals[s] = slices.Clone(locals[s])
	}
	eng = nil
	base := liveHeap()
	ix := (*topkIndex)(nil).patch(locals, 0)
	one := int64(liveHeap()) - int64(base)
	for s := 1; s < len(locals); s++ {
		locals = slices.Clone(locals)
		locals[s] = slices.Clone(locals[s]) // a re-solved site: a vector of its own
		ix = ix.patch(locals, 0)
	}
	held := int64(liveHeap()) - int64(base)
	t.Logf("%d sites: one index holds %d bytes; patched at every site but one, %d (%.2f times)", len(locals), one, held, float64(held)/float64(one))
	if float64(held) > 1.1*float64(one) {
		t.Errorf("an index patched at every site but one holds %d bytes, %.2f times one index's %d (limit 1.1)", held, float64(held)/float64(one), one)
	}
	runtime.KeepAlive(ix)
}

// TestTopKIndexAnswerAllocs pins the mallocs of one index-served uniform
// TopK-10 answer, counted from MemStats on 1, 2 and 4 procs (AllocsPerRun
// would measure at one): the Result, its DocRank, SiteRank and
// LocalIterations, the Top table and its ten URLs, and the merge heap —
// 16 measured on this 220-site web, budget 16 plus the odd runtime
// malloc. While the merge heap boxed every candidate through
// container/heap, one more per site and per answer: 257.
func TestTopKIndexAnswerAllocs(t *testing.T) {
	const runs, budget = 200, 17
	eng, err := NewLocalEngine(webgen.Generate(webgen.Default()).Graph, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := Query{TopK: 10}
	for _, procs := range []int{1, 2, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			if _, err := eng.Rank(ctx, q); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if _, err := eng.Rank(ctx, q); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			per := float64(after.Mallocs-before.Mallocs) / runs
			t.Logf("GOMAXPROCS %d: %.2f mallocs an answer", procs, per)
			if per > budget {
				t.Errorf("GOMAXPROCS %d: an index-served TopK-10 answer makes %.2f mallocs, budget %d", procs, per, budget)
			}
		}()
	}
}

// TestTopKIndexLazyChainsConcurrent: a LocalEngine keeps no chain until a
// query that solves the sites needs one — a tolerance or damping of its
// own — so its first such queries build the chains while they run — here
// several at once on a TopKIndex engine, beside an Update. Each answer
// must equal, bit for bit, what an index engine whose cores were prepared
// gives for the same query on the same snapshot, the one before the
// Update or the one after it.
func TestTopKIndexLazyChainsConcurrent(t *testing.T) {
	ctx := context.Background()
	const changed = SiteID(5)
	update := func(eng *LocalEngine) {
		err := eng.Update(ctx, GraphDelta{
			Apply: func(dg *DocGraph) error {
				editSite(t, dg, changed)
				return nil
			},
		})
		if err != nil {
			t.Error(err)
		}
	}
	queries := []Query{{TopK: 10, WantLocalRanks: true, Tol: 1e-10}, {TopK: 10, Damping: 0.8}}
	opts := EngineOptions{Parallelism: 1}

	ref, err := NewLocalEngine(churnTestWeb().Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	answers := func() []*Result {
		ref.snap.Load().base.Prepare()
		out := make([]*Result, len(queries))
		for i, q := range queries {
			if out[i], err = ref.Rank(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	before := answers()
	update(ref)
	after := answers()

	eng, err := NewLocalEngine(churnTestWeb().Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	same := func(got, want *Result) bool {
		if !sameBits(got.DocRank, want.DocRank) || len(got.LocalRanks) != len(want.LocalRanks) {
			return false
		}
		for s := range got.LocalRanks {
			if !sameBits(got.LocalRanks[s], want.LocalRanks[s]) {
				return false
			}
		}
		return reflect.DeepEqual(got.Top, want.Top)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4*len(queries); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qi := g % len(queries)
			res, err := eng.Rank(ctx, queries[qi])
			if err != nil {
				t.Error(err)
				return
			}
			if !same(res, before[qi]) && !same(res, after[qi]) {
				t.Errorf("query %d on lazily built chains differs from a prepared engine's answer on either snapshot", qi)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		update(eng)
	}()
	wg.Wait()
	for qi, q := range queries {
		res, err := eng.Rank(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !same(res, after[qi]) {
			t.Errorf("query %d after the Update differs from a prepared engine's", qi)
		}
	}
}

// TestTopKHugeK: a TopK past the number of documents asks for them all —
// N rows, equal to TopDocs — and allocates for N, not for k (math.MaxInt
// would not fit a slice), on each of the ways a Top table is made: the
// index's merge over a LocalEngine's or a DistEngine's solutions, and
// the front's sort of a DocRank solved site by site, in process or on the
// fleet.
func TestTopKHugeK(t *testing.T) {
	ctx := context.Background()
	cl, err := StartCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, c := range []struct {
		name    string
		dist    bool
		damping float64
	}{
		{"index", false, 0},
		{"solved", false, 0.8},
		{"dist-index", true, 0},
		{"dist-run", true, 0.8},
	} {
		var eng servedEngine
		if c.dist {
			eng, err = NewDistEngine(cl, churnTestWeb().Graph, DistConfig{})
		} else {
			eng, err = NewLocalEngine(churnTestWeb().Graph, EngineOptions{})
		}
		if err != nil {
			t.Fatal(err)
		}
		n := eng.DocGraph().NumDocs()
		for _, k := range []int{n + 1, math.MaxInt} {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s, TopK %d: Rank panicked: %v", c.name, k, p)
					}
				}()
				served := eng.ServingStats().TopKIndexServes
				res, err := eng.Rank(ctx, Query{TopK: k, Damping: c.damping})
				if err != nil {
					t.Fatalf("%s, TopK %d: %v", c.name, k, err)
				}
				if indexed := eng.ServingStats().TopKIndexServes > served; indexed != (c.damping == 0) {
					t.Errorf("%s, TopK %d: served from the index = %v", c.name, k, indexed)
				}
				if solved := solvedSites(res); !c.dist && solved != (c.damping != 0) {
					t.Errorf("%s, TopK %d: solved the sites = %v", c.name, k, solved)
				}
				if len(res.Top) != n {
					t.Errorf("%s, TopK %d: %d rows, want all %d documents", c.name, k, len(res.Top), n)
				}
				if want := TopDocs(eng.DocGraph(), res.DocRank, k); !reflect.DeepEqual(res.Top, want) {
					t.Errorf("%s, TopK %d: Top differs from TopDocs", c.name, k)
				}
			}()
		}
	}
}

// TestDistEngineTopKIndex: a DistEngine takes the Top table of every TopK
// query it composes from its solutions from their top-k index, on each of
// distModes' configs, with no option set: the query counts
// TopKIndexServes, and its Top is bit for bit the full sort of its own
// DocRank and a LocalEngine's over the same graph — to solver tolerance
// after the Update, bit for bit cold — before and after a 1-site Update
// — whose fill patches
// the index the previous snapshot had, re-sorting only the changed site.
// A warm uniform one sends no message.
func TestDistEngineTopKIndex(t *testing.T) {
	ctx := context.Background()
	for _, m := range distModes {
		t.Run(m.name, func(t *testing.T) {
			cl, err := StartCluster(2)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			eng, err := NewDistEngine(cl, churnTestWeb().Graph, m.cfg)
			if err != nil {
				t.Fatal(err)
			}
			local, err := NewLocalEngine(churnTestWeb().Graph, EngineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			check := func(when string) {
				t.Helper()
				for qi, q := range topkQueries(eng.DocGraph().NumSites()) {
					want, err := local.Rank(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					for rep := 0; rep < 2; rep++ {
						served := eng.ServingStats().TopKIndexServes
						res, err := eng.Rank(ctx, q)
						if err != nil {
							t.Fatalf("%s query %d: %v", when, qi, err)
						}
						if got := eng.ServingStats().TopKIndexServes; got != served+1 {
							t.Errorf("%s query %d: TopKIndexServes %d → %d, want one index serve", when, qi, served, got)
						}
						if full := TopDocs(eng.DocGraph(), res.DocRank, q.TopK); !reflect.DeepEqual(res.Top, full) {
							t.Errorf("%s query %d: index Top differs from the full sort of its DocRank", when, qi)
						}
						exact := when == "cold"
						if !nearTop(res.Top, want.Top) || exact && !reflect.DeepEqual(res.Top, want.Top) {
							t.Errorf("%s query %d: Top differs from a LocalEngine's (bit for bit: %v)\n got %v\nwant %v", when, qi, exact, res.Top, want.Top)
						}
						if rep == 1 && q.SitePersonalization == nil && res.Dist.Messages != 0 {
							t.Errorf("%s query %d: a warm TopK query sent %d messages", when, qi, res.Dist.Messages)
						}
					}
				}
			}
			check("cold")
			old := eng.snap.Load().sol.Load().index.Load()
			const changed = SiteID(5)
			for _, e := range []Engine{eng, local} {
				if err := e.Update(ctx, GraphDelta{
					Apply: func(dg *DocGraph) error { editSite(t, dg, changed); return nil },
				}); err != nil {
					t.Fatal(err)
				}
			}
			check("after an Update")
			next := eng.snap.Load().sol.Load().index.Load()
			for s := range next.order {
				if shared := &next.order[s][0] == &old.order[s][0]; shared != (SiteID(s) != changed) {
					t.Errorf("site %d (changed: %v): order shared with the previous snapshot's index = %v", s, SiteID(s) == changed, shared)
				}
			}
		})
	}
}

// nearTop reports whether two Top tables name the same documents in the
// same order with scores < 1e-9 apart in L1, the bound the engines'
// DocRanks are pinned to agree within: after an Update a fleet solves a
// changed site cold where a LocalEngine warm-starts it, so the two agree
// to solver tolerance, not to the bit.
func nearTop(a, b []DocScore) bool {
	var d float64
	for i := range min(len(a), len(b)) {
		d += math.Abs(a[i].Score - b[i].Score)
	}
	return d < 1e-9 && slices.EqualFunc(a, b, func(x, y DocScore) bool { return x.Doc == y.Doc && x.URL == y.URL })
}

// TestTopKIndexBuiltOnce: concurrent first TopK queries publish one
// index — on a fresh snapshot, which sorts it, and again on the one an
// Update publishes, which patches the previous snapshot's (a DistEngine's
// concurrent first queries race to fill that snapshot, and one fill
// wins). Every answer's Top is the full sort of its DocRank, and later
// queries read the published index rather than replace it. Run with
// GOMAXPROCS 4 under -race by make race-multi.
func TestTopKIndexBuiltOnce(t *testing.T) {
	ctx := context.Background()
	bothEngines(t, EngineOptions{}, func(t *testing.T, eng servedEngine) {
		burst := func(when string) {
			t.Helper()
			front := serverOf(eng)
			snap := front.snap.Load()
			const n = 6
			res := make([]*Result, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := range res {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res[i], errs[i] = eng.Rank(ctx, Query{TopK: 10})
				}()
			}
			wg.Wait()
			sol := snap.sol.Load()
			ix := sol.index.Load()
			if ix == nil {
				t.Fatalf("%s: no index was published", when)
			}
			for i, r := range res {
				if errs[i] != nil {
					t.Fatalf("%s: query %d: %v", when, i, errs[i])
				}
				if want := TopDocs(snap.dg, r.DocRank, 10); !reflect.DeepEqual(r.Top, want) {
					t.Errorf("%s: query %d: Top differs from the full sort", when, i)
				}
			}
			if _, err := eng.Rank(ctx, Query{TopK: 3}); err != nil {
				t.Fatal(err)
			}
			if snap.sol.Load() != sol || sol.index.Load() != ix || sol.topk(0) != ix {
				t.Errorf("%s: a later query replaced the published solutions or index", when)
			}
		}
		burst("fresh snapshot")
		if err := eng.Update(ctx, GraphDelta{
			Apply: func(dg *DocGraph) error { editSite(t, dg, 5); return nil },
		}); err != nil {
			t.Fatal(err)
		}
		burst("after an Update")
	})
}

// serverOf is the serving front eng embeds.
func serverOf(eng servedEngine) *server {
	switch e := eng.(type) {
	case *LocalEngine:
		return &e.server
	case *DistEngine:
		return &e.server
	}
	panic(fmt.Sprintf("no serving front in %T", eng))
}

// FuzzSortSite checks the index's radix sort against the comparison sort
// it replaced — score descending, ties toward the lower position — on
// scores drawn from a palette that makes ties, zeros of both signs and
// subnormals common, and from raw nonnegative bit patterns.
func FuzzSortSite(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3})
	f.Add([]byte{0, 1, 0, 1, 2, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{8, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0})
	palette := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		0x1p-1022, 0.25, 0.25 + 0x1p-54, 1, math.MaxFloat64}
	f.Fuzz(func(t *testing.T, data []byte) {
		var local Vector
		for len(data) > 0 {
			b := data[0]
			data = data[1:]
			if int(b) < len(palette) || len(data) < 8 {
				local = append(local, palette[int(b)%len(palette)])
				continue
			}
			x := math.Float64frombits(binary.LittleEndian.Uint64(data) &^ (1 << 63))
			data = data[8:]
			if math.IsNaN(x) {
				x = math.Inf(1)
			}
			local = append(local, x)
		}
		got := make([]uint32, len(local))
		sortSite(got, local)
		want := make([]uint32, len(local))
		for i := range want {
			want[i] = uint32(i)
		}
		slices.SortFunc(want, func(a, b uint32) int {
			if x, y := local[a], local[b]; x != y {
				if x > y {
					return -1
				}
				return 1
			}
			return cmp.Compare(a, b)
		})
		if !slices.Equal(got, want) {
			t.Errorf("scores %v: radix order %v, comparison order %v", local, got, want)
		}
	})
}
