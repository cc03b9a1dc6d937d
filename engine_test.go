package lmmrank

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// engineWeb is a moderately sized campus web shared by the engine tests.
func engineWeb() *CampusWeb {
	return GenerateCampusWeb(CampusWebConfig{
		Seed: 71, Sites: 15, MeanSitePages: 10,
		DynamicClusterPages: 40, DocClusterPages: 40,
	})
}

// mixedQueries is the query workload every serving test drives: uniform,
// site-personalized, document-personalized, top-k and three-layer.
func mixedQueries(dg *DocGraph) []Query {
	sitePers := make(Vector, dg.NumSites())
	for i := range sitePers {
		sitePers[i] = 1
	}
	sitePers[2] = 10
	sitePers.Normalize()

	var docPers map[SiteID]Vector
	for s := 0; s < dg.NumSites(); s++ {
		if n := dg.SiteSize(SiteID(s)); n > 1 {
			v := make(Vector, n)
			for i := range v {
				v[i] = 1
			}
			v[0] = 5
			v.Normalize()
			docPers = map[SiteID]Vector{SiteID(s): v}
			break
		}
	}

	return []Query{
		{},
		{SitePersonalization: sitePers},
		{DocPersonalization: docPers},
		{TopK: 10, WantLocalRanks: true},
		{ThreeLayer: true},
		{ThreeLayer: true, TopK: 5},
	}
}

// TestLocalEngineMatchesOneShot pins the reimplementation: the Engine
// answers exactly what the one-shot pipelines compute, bitwise.
func TestLocalEngineMatchesOneShot(t *testing.T) {
	web := engineWeb()
	eng, err := NewLocalEngine(web.Graph, EngineOptions{})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	ctx := context.Background()

	ref, err := LayeredDocRank(web.Graph, WebConfig{})
	if err != nil {
		t.Fatalf("LayeredDocRank: %v", err)
	}
	got, err := eng.Rank(ctx, Query{})
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	if !reflect.DeepEqual(got.DocRank, ref.DocRank) || !reflect.DeepEqual(got.SiteRank, ref.SiteRank) {
		t.Error("LocalEngine uniform ranking deviates from LayeredDocRank")
	}

	ref3, err := LayeredDocRank3(web.Graph, nil, WebConfig{})
	if err != nil {
		t.Fatalf("LayeredDocRank3: %v", err)
	}
	got3, err := eng.Rank(ctx, Query{ThreeLayer: true})
	if err != nil {
		t.Fatalf("three-layer Rank: %v", err)
	}
	if !reflect.DeepEqual(got3.DocRank, ref3.DocRank) || !reflect.DeepEqual(got3.DomainRank, ref3.DomainRank) {
		t.Error("LocalEngine three-layer ranking deviates from LayeredDocRank3")
	}

	top, err := eng.Rank(ctx, Query{TopK: 5})
	if err != nil {
		t.Fatalf("top-k Rank: %v", err)
	}
	want := TopDocs(web.Graph, ref.DocRank, 5)
	if !reflect.DeepEqual(top.Top, want) {
		t.Errorf("Top = %+v, want %+v", top.Top, want)
	}
}

// TestLocalEngineConcurrentBitwiseEqual is the concurrent-serving bar:
// N goroutines hammering one LocalEngine with the mixed workload (run
// under -race via `make race`) must produce results bitwise equal to
// the serial answers.
func TestLocalEngineConcurrentBitwiseEqual(t *testing.T) {
	web := engineWeb()
	eng, err := NewLocalEngine(web.Graph, EngineOptions{})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	ctx := context.Background()
	queries := mixedQueries(web.Graph)

	serial := make([]*Result, len(queries))
	for i, q := range queries {
		if serial[i], err = eng.Rank(ctx, q); err != nil {
			t.Fatalf("serial Rank(%d): %v", i, err)
		}
	}

	const goroutines = 8
	const iters = 12
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				qi := (g + it) % len(queries)
				res, err := eng.Rank(ctx, queries[qi])
				if err != nil {
					errCh <- fmt.Errorf("goroutine %d query %d: %w", g, qi, err)
					return
				}
				if !reflect.DeepEqual(res.DocRank, serial[qi].DocRank) {
					errCh <- fmt.Errorf("goroutine %d query %d: DocRank deviates from serial answer", g, qi)
					return
				}
				if !reflect.DeepEqual(res.SiteRank, serial[qi].SiteRank) {
					errCh <- fmt.Errorf("goroutine %d query %d: SiteRank deviates from serial answer", g, qi)
					return
				}
				if !reflect.DeepEqual(res.Top, serial[qi].Top) {
					errCh <- fmt.Errorf("goroutine %d query %d: Top deviates from serial answer", g, qi)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestLayeredDocRank3HonorsDocPersonalization is the wrapper-regression
// guard: document-layer personalization must flow through the
// Engine-backed LayeredDocRank3 exactly as it did pre-Engine, not get
// silently dropped in the WebConfig→Query mapping.
func TestLayeredDocRank3HonorsDocPersonalization(t *testing.T) {
	web := engineWeb()
	queries := mixedQueries(web.Graph)
	var docPers map[SiteID]Vector
	for _, q := range queries {
		if q.DocPersonalization != nil {
			docPers = q.DocPersonalization
		}
	}
	if docPers == nil {
		t.Fatal("mixedQueries built no doc personalization")
	}
	uniform, err := LayeredDocRank3(web.Graph, nil, WebConfig{})
	if err != nil {
		t.Fatalf("LayeredDocRank3: %v", err)
	}
	personalized, err := LayeredDocRank3(web.Graph, nil, WebConfig{DocPersonalization: docPers})
	if err != nil {
		t.Fatalf("personalized LayeredDocRank3: %v", err)
	}
	if d := personalized.DocRank.L1Diff(uniform.DocRank); d == 0 {
		t.Error("document personalization had no effect — it was dropped on the way to the Engine")
	}
}

// TestResultCallerOwned is the aliasing regression the Engine contract
// promises: clobbering a returned Result must not perturb any later
// query, on either the Engine or the deprecated one-shot wrappers.
func TestResultCallerOwned(t *testing.T) {
	web := engineWeb()
	eng, err := NewLocalEngine(web.Graph, EngineOptions{})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	ctx := context.Background()

	first, err := eng.Rank(ctx, Query{WantLocalRanks: true})
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	saved := first.DocRank.Clone()
	savedSite := first.SiteRank.Clone()
	// Vandalize everything the caller can reach.
	for i := range first.DocRank {
		first.DocRank[i] = -1
	}
	for i := range first.SiteRank {
		first.SiteRank[i] = 99
	}
	for _, lr := range first.LocalRanks {
		for i := range lr {
			lr[i] = -7
		}
	}
	second, err := eng.Rank(ctx, Query{})
	if err != nil {
		t.Fatalf("re-query: %v", err)
	}
	if !reflect.DeepEqual(second.DocRank, saved) || !reflect.DeepEqual(second.SiteRank, savedSite) {
		t.Error("mutating a returned Result perturbed a later query — scratch leaked across the public boundary")
	}
}

// TestPageRankCallerOwned is the same regression for the flat-PageRank
// facade functions.
func TestPageRankCallerOwned(t *testing.T) {
	web := engineWeb()
	first, err := PageRank(web.Graph, WebConfig{})
	if err != nil {
		t.Fatalf("PageRank: %v", err)
	}
	saved := first.Clone()
	for i := range first {
		first[i] = -3
	}
	second, err := PageRank(web.Graph, WebConfig{})
	if err != nil {
		t.Fatalf("PageRank again: %v", err)
	}
	if !reflect.DeepEqual(second, saved) {
		t.Error("mutating PageRank's result perturbed a later call")
	}

	g, err := PageRankGraph(web.Graph.G, 0.85)
	if err != nil {
		t.Fatalf("PageRankGraph: %v", err)
	}
	savedG := g.Clone()
	for i := range g {
		g[i] = 42
	}
	again, err := PageRankGraph(web.Graph.G, 0.85)
	if err != nil {
		t.Fatalf("PageRankGraph again: %v", err)
	}
	if !reflect.DeepEqual(again, savedG) {
		t.Error("mutating PageRankGraph's result perturbed a later call")
	}
}

// countdownCtx is a deterministic cancellation probe: it reports healthy
// for the first n Err() checks, then cancelled forever. Because the
// power iteration checks Ctx.Err() once per iteration, a small n lands
// the cancellation mid-iteration — no timing, no flakes.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestLocalEngineCancellation covers both cancellation shapes on the
// local backend: a pre-cancelled context never starts the query, and a
// context that trips mid-power-iteration aborts the run with ctx.Err();
// the engine keeps serving afterwards.
func TestLocalEngineCancellation(t *testing.T) {
	web := engineWeb()
	eng, err := NewLocalEngine(web.Graph, EngineOptions{})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Rank(pre, Query{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Rank: err = %v, want context.Canceled", err)
	}

	// Let a handful of Err checks pass so the abort lands strictly
	// inside a power iteration, not at the entry check.
	mid := newCountdownCtx(5)
	if _, err := eng.Rank(mid, Query{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-iteration cancel: err = %v, want context.Canceled", err)
	}

	if _, err := eng.Rank(context.Background(), Query{}); err != nil {
		t.Fatalf("Rank after a cancelled query: %v", err)
	}
}

// TestDistEngine runs the unified Query set through the distributed
// backend and checks it against the local engine, plus the dist-specific
// contract points: unsupported document personalization, caller-owned
// stats, and context cancellation.
func TestDistEngine(t *testing.T) {
	web := engineWeb()
	cl, err := StartCluster(2)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()

	local, err := NewLocalEngine(web.Graph, EngineOptions{})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	dist, err := NewDistEngine(cl, web.Graph, DistConfig{})
	if err != nil {
		t.Fatalf("NewDistEngine: %v", err)
	}
	ctx := context.Background()

	for i, q := range mixedQueries(web.Graph) {
		if q.DocPersonalization != nil {
			if _, err := dist.Rank(ctx, q); !errors.Is(err, ErrUnsupportedQuery) {
				t.Errorf("query %d: doc personalization on DistEngine: err = %v, want ErrUnsupportedQuery", i, err)
			}
			continue
		}
		want, err := local.Rank(ctx, q)
		if err != nil {
			t.Fatalf("local query %d: %v", i, err)
		}
		got, err := dist.Rank(ctx, q)
		if err != nil {
			t.Fatalf("dist query %d: %v", i, err)
		}
		if d := got.DocRank.L1Diff(want.DocRank); d >= 1e-9 {
			t.Errorf("query %d: ‖dist − local‖₁ = %g, want < 1e-9", i, d)
		}
		if d := got.SiteRank.L1Diff(want.SiteRank); d >= 1e-9 {
			t.Errorf("query %d: ‖dist − local‖₁ on SiteRank = %g, want < 1e-9", i, d)
		}
		if q.TopK > 0 && len(got.Top) != q.TopK {
			t.Errorf("query %d: %d top entries, want %d", i, len(got.Top), q.TopK)
		}
		if got.Dist == nil || got.Dist.Messages == 0 {
			t.Errorf("query %d: distributed stats missing", i)
		}
	}

	pre, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := dist.Rank(pre, Query{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled dist Rank: err = %v, want context.Canceled", err)
	}
	if _, err := dist.Rank(ctx, Query{}); err != nil {
		t.Fatalf("dist Rank after a cancelled query: %v", err)
	}
}

// TestQueryValidation drives every ErrUnsupportedQuery branch through
// both engines with one table: the ThreeLayer + SitePersonalization
// combination, document-layer personalization on the distributed
// backend, and malformed personalization vectors (non-finite entries,
// negative weights, mass other than 1), which must be rejected at the Query
// boundary instead of surfacing as solver failures mid-run. Control
// rows pin that well-formed queries still pass.
func TestQueryValidation(t *testing.T) {
	web := engineWeb()
	cl, err := StartCluster(2)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()
	local, err := NewLocalEngine(web.Graph, EngineOptions{})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	dist, err := NewDistEngine(cl, web.Graph, DistConfig{})
	if err != nil {
		t.Fatalf("NewDistEngine: %v", err)
	}
	ctx := context.Background()

	goodSite := make(Vector, web.Graph.NumSites())
	for i := range goodSite {
		goodSite[i] = 1
	}
	goodSite.Normalize()
	// poisonSite clones the valid site vector and overwrites one entry.
	poisonSite := func(x float64) Vector {
		v := goodSite.Clone()
		v[1] = x
		return v
	}
	var docSite SiteID
	for s := 0; s < web.Graph.NumSites(); s++ {
		if web.Graph.SiteSize(SiteID(s)) > 1 {
			docSite = SiteID(s)
			break
		}
	}
	goodDoc := make(Vector, web.Graph.SiteSize(docSite))
	for i := range goodDoc {
		goodDoc[i] = 1
	}
	goodDoc.Normalize()
	poisonDoc := func(x float64) map[SiteID]Vector {
		v := goodDoc.Clone()
		v[0] = x
		return map[SiteID]Vector{docSite: v}
	}

	cases := []struct {
		name string
		q    Query
		// rejected by both engines / by the distributed engine only
		rejected     bool
		distRejected bool
	}{
		{name: "uniform", q: Query{}},
		{name: "sitePersonalized", q: Query{SitePersonalization: goodSite}},
		{name: "threeLayer", q: Query{ThreeLayer: true}},
		{
			name:         "docPersonalizedIsLocalOnly",
			q:            Query{DocPersonalization: map[SiteID]Vector{docSite: goodDoc}},
			distRejected: true,
		},
		{
			name:     "threeLayerWithSitePersonalization",
			q:        Query{ThreeLayer: true, SitePersonalization: goodSite},
			rejected: true,
		},
		{name: "siteNaN", q: Query{SitePersonalization: poisonSite(math.NaN())}, rejected: true},
		{name: "siteInf", q: Query{SitePersonalization: poisonSite(math.Inf(1))}, rejected: true},
		{name: "siteNegative", q: Query{SitePersonalization: poisonSite(-1)}, rejected: true},
		{
			name:     "siteZeroMass",
			q:        Query{SitePersonalization: make(Vector, web.Graph.NumSites())},
			rejected: true,
		},
		{name: "siteUnnormalized", q: Query{SitePersonalization: goodSite.Clone().Scale(2)}, rejected: true},
		{name: "docNaN", q: Query{DocPersonalization: poisonDoc(math.NaN())}, rejected: true},
		{name: "docInf", q: Query{DocPersonalization: poisonDoc(math.Inf(-1))}, rejected: true},
		{name: "docNegative", q: Query{DocPersonalization: poisonDoc(-0.5)}, rejected: true},
		{
			name:     "docZeroMass",
			q:        Query{DocPersonalization: map[SiteID]Vector{docSite: make(Vector, len(goodDoc))}},
			rejected: true,
		},
		{
			name:     "docUnnormalized",
			q:        Query{DocPersonalization: map[SiteID]Vector{docSite: goodDoc.Clone().Scale(2)}},
			rejected: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engines := []struct {
				name     string
				eng      Engine
				rejected bool
			}{
				{"local", local, tc.rejected},
				{"dist", dist, tc.rejected || tc.distRejected},
			}
			for _, e := range engines {
				_, err := e.eng.Rank(ctx, tc.q)
				if e.rejected {
					if !errors.Is(err, ErrUnsupportedQuery) {
						t.Errorf("%s: err = %v, want ErrUnsupportedQuery", e.name, err)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s: unexpected error: %v", e.name, err)
				}
			}
		})
	}
}
