package lmm

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"lmmrank/internal/graph"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
	"lmmrank/internal/webgen"
)

// referenceLayeredDocRank recomputes the §3.2 pipeline from its building
// blocks, independently of Ranker's precomputation and buffer reuse: a
// fresh SiteGraph, fresh subgraphs, fresh pagerank solves. Combined with
// the kernel-level bitwise tests in internal/matrix and
// internal/pagerank, agreement here pins the whole refactored pipeline
// to the pre-optimization semantics.
func referenceLayeredDocRank(dg *graph.DocGraph, cfg WebConfig) (*WebResult, error) {
	sg := graph.DeriveSiteGraph(dg, cfg.SiteGraph)
	siteRes, err := pagerank.Sparse(sg.G.TransitionMatrix(), pagerank.Config{
		Damping:         cfg.Damping,
		Personalization: cfg.SitePersonalization,
		Tol:             cfg.Tol,
		MaxIter:         cfg.MaxIter,
	})
	if err != nil {
		return nil, err
	}
	local := make([]matrix.Vector, dg.NumSites())
	for s := range local {
		switch dg.SiteSize(graph.SiteID(s)) {
		case 0:
			local[s] = matrix.Vector{}
		case 1:
			local[s] = matrix.Vector{1}
		default:
			sub, _ := dg.LocalSubgraph(graph.SiteID(s))
			var pers matrix.Vector
			if cfg.DocPersonalization != nil {
				pers = cfg.DocPersonalization[graph.SiteID(s)]
			}
			res, err := pagerank.Sparse(sub.TransitionMatrix(), pagerank.Config{
				Damping:         cfg.Damping,
				Personalization: pers,
				Tol:             cfg.Tol,
				MaxIter:         cfg.MaxIter,
			})
			if err != nil {
				return nil, err
			}
			local[s] = res.Scores
		}
	}
	return &WebResult{
		DocRank:    ComposeDocRank(dg, siteRes.Scores, local),
		SiteRank:   siteRes.Scores,
		LocalRanks: local,
	}, nil
}

func TestRankerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		dg := randomWeb(rng, rng.Intn(8)+2, rng.Intn(60)+5)
		want, err := referenceLayeredDocRank(dg, WebConfig{})
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		r, err := NewRanker(dg, RankerOptions{})
		if err != nil {
			t.Fatalf("trial %d: NewRanker: %v", trial, err)
		}
		got, err := r.Rank(WebConfig{})
		if err != nil {
			t.Fatalf("trial %d: Rank: %v", trial, err)
		}
		if got.DocRank.L1Diff(want.DocRank) != 0 {
			t.Fatalf("trial %d: DocRank differs from reference by %g",
				trial, got.DocRank.L1Diff(want.DocRank))
		}
		if got.SiteRank.L1Diff(want.SiteRank) != 0 {
			t.Fatalf("trial %d: SiteRank differs", trial)
		}
	}
}

func TestRankerRepeatedQueriesStable(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	dg := randomWeb(rng, 6, 80)
	r, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.Rank(WebConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := first.DocRank.Clone()
	for i := 0; i < 5; i++ {
		res, err := r.Rank(WebConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if res.DocRank.L1Diff(want) != 0 {
			t.Fatalf("repeat %d drifted by %g", i, res.DocRank.L1Diff(want))
		}
	}
}

// The E8 serving scenario: one precomputed Ranker answering alternating
// uniform and personalized queries, each matching a fresh one-shot
// pipeline bitwise — scratch reuse must not leak state across queries.
func TestRankerPersonalizedQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	dg := randomWeb(rng, 5, 70)
	r, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatal(err)
	}

	sitePers := matrix.NewVector(dg.NumSites())
	for i := range sitePers {
		sitePers[i] = rng.Float64() + 0.01
	}
	sitePers.Normalize()
	docPers := map[graph.SiteID]matrix.Vector{}
	for s := 0; s < dg.NumSites(); s++ {
		if n := dg.SiteSize(graph.SiteID(s)); n > 1 {
			v := matrix.NewVector(n)
			for i := range v {
				v[i] = rng.Float64() + 0.01
			}
			docPers[graph.SiteID(s)] = v.Normalize()
			break
		}
	}

	configs := []WebConfig{
		{},
		{SitePersonalization: sitePers},
		{DocPersonalization: docPers},
		{},
		{SitePersonalization: sitePers, DocPersonalization: docPers},
	}
	for i, cfg := range configs {
		got, err := r.Rank(cfg)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want, err := LayeredDocRank(dg, cfg)
		if err != nil {
			t.Fatalf("query %d reference: %v", i, err)
		}
		if got.DocRank.L1Diff(want.DocRank) != 0 {
			t.Fatalf("query %d differs from one-shot pipeline by %g",
				i, got.DocRank.L1Diff(want.DocRank))
		}
	}
}

// Steady-state Rank performs no allocations beyond the WebResult header:
// every solver, scratch vector and result buffer was precomputed.
func TestRankerRankAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	dg := randomWeb(rng, 10, 300)
	r, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := WebConfig{Parallelism: 1}
	if _, err := r.Rank(cfg); err != nil {
		t.Fatal(err)
	}
	var rankErr error
	allocs := testing.AllocsPerRun(20, func() {
		_, rankErr = r.Rank(cfg)
	})
	if rankErr != nil {
		t.Fatal(rankErr)
	}
	if allocs > 1 {
		t.Errorf("Rank allocates %.1f per query, budget is 1 (the WebResult header)", allocs)
	}
}

// undedupedWeb hand-builds a DocGraph whose digraph still holds
// duplicate parallel edges — the state a crawler-fed graph is in before
// anyone calls Dedupe. (The Builder dedupes at Build, so this must be
// constructed manually.)
func undedupedWeb(rng *rand.Rand, nSites, nDocs int) *graph.DocGraph {
	g := graph.NewDigraph(nDocs)
	for e := 0; e < nDocs*4; e++ {
		from := rng.Intn(nDocs)
		g.AddLink(from, rng.Intn(nDocs))
		g.AddLink(from, rng.Intn(nDocs)) // extra parallel edges
	}
	dg := &graph.DocGraph{G: g, Sites: make([]graph.Site, nSites)}
	for s := range dg.Sites {
		dg.Sites[s].Name = fmt.Sprintf("s%d.example", s)
	}
	for d := range nDocs {
		s := d % nSites
		dg.AddDoc(fmt.Sprintf("http://s%d.example/p%d", s, d), graph.SiteID(s))
	}
	return dg
}

// Regression for the latent data race: the parallel pipelines used to
// reach Dedupe (a mutation) on the shared digraph from concurrent
// goroutines when handed an undeduped graph. The entry points now dedupe
// once up front; run with -race to verify (make race covers this
// package).
func TestParallelPipelinesOnUndedupedGraphRaceFree(t *testing.T) {
	rng := rand.New(rand.NewSource(65))

	dg := undedupedWeb(rng, 6, 120)
	if err := dg.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := LayeredDocRank(dg, WebConfig{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DocRank.IsDistribution(1e-7) {
		t.Error("layered DocRank not a distribution")
	}

	dg3 := undedupedWeb(rng, 6, 120)
	if _, err := LayeredDocRank3(dg3, nil, WebConfig{Parallelism: 4}); err != nil {
		t.Fatal(err)
	}
}

// Pin the WebConfig damping sentinel: zero selects 0.85 exactly, tiny
// explicit values are honored, out-of-range damping errors.
func TestWebConfigDampingZeroSentinel(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	dg := randomWeb(rng, 4, 50)

	zero, err1 := LayeredDocRank(dg, WebConfig{Damping: 0})
	def, err2 := LayeredDocRank(dg, WebConfig{Damping: pagerank.DefaultDamping})
	if err1 != nil || err2 != nil {
		t.Fatalf("errs %v / %v", err1, err2)
	}
	if zero.DocRank.L1Diff(def.DocRank) != 0 {
		t.Error("WebConfig{Damping: 0} is not identical to explicit 0.85")
	}

	tiny, err := LayeredDocRank(dg, WebConfig{Damping: 1e-6})
	if err != nil {
		t.Fatalf("tiny damping rejected: %v", err)
	}
	if tiny.DocRank.L1Diff(def.DocRank) == 0 {
		t.Error("tiny damping silently reinterpreted as default")
	}

	if _, err := LayeredDocRank(dg, WebConfig{Damping: 1.5}); err == nil {
		t.Error("damping 1.5 accepted")
	}
}

// TestLocalSubgraphFanOutWritesNothing: once a graph is readied — by
// NewRanker, or on a bare decoded graph by one serial LocalSubgraph —
// extracting every site at once, four goroutines wide, reads the shared
// graph and writes nothing (any write is a failure under -race),
// and each subgraph is the one a serial pass extracts.
func TestLocalSubgraphFanOutWritesNothing(t *testing.T) {
	built := randomWeb(rand.New(rand.NewSource(64)), 24, 600)
	var file bytes.Buffer
	if err := graph.EncodeBinary(&file, built); err != nil {
		t.Fatal(err)
	}
	decoded, err := graph.DecodeBinary(&file)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRanker(built, RankerOptions{}); err != nil {
		t.Fatal(err)
	}
	decoded.LocalSubgraph(0)

	for what, dg := range map[string]*graph.DocGraph{"after NewRanker": built, "decoded, after one serial call": decoded} {
		got := make([]string, dg.NumSites())
		for round := 0; round < 4; round++ {
			ForEachParallel(len(got), 4, func(s int) {
				sub, _ := dg.LocalSubgraph(graph.SiteID(s))
				got[s] = subgraphString(sub)
			})
		}
		for s := range got {
			// The built graph's serial extraction is the reference for both.
			sub, _ := built.LocalSubgraph(graph.SiteID(s))
			if want := subgraphString(sub); got[s] != want {
				t.Fatalf("%s: site %d extracted %s in the fan-out, %s serially", what, s, got[s], want)
			}
		}
	}
}

// subgraphString spells out a subgraph, node count and every link.
func subgraphString(sub *graph.Digraph) string {
	var out []string
	sub.EachEdgeAll(func(from int, e graph.Edge) { out = append(out, fmt.Sprint(from, e)) })
	return fmt.Sprint(sub.NumNodes(), out)
}

// TestRankerLocalSubgraphExtractsOnDemand: a Ranker retains no subgraph,
// so LocalSubgraph extracts from the graph each time — and must hand
// back what dg.LocalSubgraph does, with the retained index resolving
// like a fresh one. The random web's sites interleave in DocID order (the
// extraction must search their rosters) and the answer on it still matches
// the reference pipeline, including from Share()d rankers whose first Rank
// races to build the cold chains.
func TestRankerLocalSubgraphExtractsOnDemand(t *testing.T) {
	dg := randomWeb(rand.New(rand.NewSource(62)), 5, 60)
	spread := 0
	for _, site := range dg.Sites {
		if docs := site.Docs; len(docs) > 0 && int(docs[len(docs)-1]-docs[0]) >= len(docs) {
			spread++
		}
	}
	if spread == 0 {
		t.Fatal("every site is one run of DocIDs: no roster is searched")
	}
	rk, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	for s := 0; s < dg.NumSites(); s++ {
		gotSub, gotIdx := rk.LocalSubgraph(graph.SiteID(s))
		wantSub, wantIdx := dg.LocalSubgraph(graph.SiteID(s))
		if got, want := subgraphString(gotSub), subgraphString(wantSub); got != want {
			t.Fatalf("site %d: subgraph %v, want %v", s, got, want)
		}
		if again, _ := rk.LocalSubgraph(graph.SiteID(s)); again == gotSub && gotSub.NumNodes() > 0 {
			t.Fatalf("site %d: LocalSubgraph handed out a retained subgraph", s)
		}
		if !slices.Equal(gotIdx.ToGlobal, wantIdx.ToGlobal) {
			t.Fatalf("site %d: index %v, want %v", s, gotIdx.ToGlobal, wantIdx.ToGlobal)
		}
		for i, d := range gotIdx.ToGlobal {
			if j := dg.LocalOf(d); j != i {
				t.Fatalf("site %d: LocalOf(%d) = %d, want %d", s, d, j, i)
			}
		}
	}
	want, err := referenceLayeredDocRank(dg, WebConfig{})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(r *Ranker) {
			defer wg.Done()
			got, err := r.Rank(WebConfig{})
			if err != nil {
				t.Errorf("Rank: %v", err)
				return
			}
			if d := got.DocRank.L1Diff(want.DocRank); d != 0 {
				t.Errorf("DocRank differs from the reference by %g", d)
			}
		}(rk.Share())
	}
	wg.Wait()
}

// powerSweeps counts the steps matrix.PowerLeft needs on the damped chain
// of g at the default damping, tolerance and uniform teleport — what a
// solve cost while Solver stepped the power method.
func powerSweeps(t *testing.T, g *graph.Digraph) int {
	t.Helper()
	op, err := pagerank.NewOperator(g.TransitionMatrix(), pagerank.DefaultDamping, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := matrix.PowerLeft(op, matrix.PowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Iterations
}

// TestRankSweepsBeatPowerSteps pins the two properties the in-place solve's
// speed rests on, on a webgen web: the site chain, which keeps its mass on
// self-loops, converges in at most a third of the power method's steps,
// and the document chains together in at most two thirds.
func TestRankSweepsBeatPowerSteps(t *testing.T) {
	cfg := webgen.Small()
	cfg.Seed = 24
	dg := webgen.Generate(cfg).Graph
	rk, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rk.Rank(WebConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sitePower := powerSweeps(t, rk.SiteGraph().G)
	if 3*res.SiteIterations > sitePower {
		t.Errorf("site solve took %d sweeps, power method %d: want at most a third", res.SiteIterations, sitePower)
	}
	var local, localPower int
	for s, it := range res.LocalIterations {
		local += it
		if it > 0 {
			sub, _ := dg.LocalSubgraph(graph.SiteID(s))
			localPower += powerSweeps(t, sub)
		}
	}
	if 3*local > 2*localPower {
		t.Errorf("local solves took %d sweeps, power method %d: want at most two thirds", local, localPower)
	}
	t.Logf("site %d vs %d, locals %d vs %d", res.SiteIterations, sitePower, local, localPower)
}

// TestConvergedSeedCostsOneSweep: Rank and RankRefresh seeded with their
// own previous SiteRank and LocalRanks confirm every layer in one sweep —
// what keeps an Update's re-polish of the clean sites cheap.
func TestConvergedSeedCostsOneSweep(t *testing.T) {
	cfg := webgen.Small()
	cfg.Seed = 24
	rk, err := NewRanker(webgen.Generate(cfg).Graph, RankerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prev, err := rk.Rank(WebConfig{})
	if err != nil {
		t.Fatal(err)
	}
	seeded := WebConfig{SiteStart: prev.SiteRank.Clone(), LocalStarts: make([]matrix.Vector, len(prev.LocalRanks))}
	all := make([]graph.SiteID, len(prev.LocalRanks))
	for s, lr := range prev.LocalRanks {
		seeded.LocalStarts[s] = lr.Clone()
		all[s] = graph.SiteID(s)
	}
	check := func(name string, res *WebResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.SiteIterations > 1 {
			t.Errorf("%s: seeded site solve took %d sweeps, want 1", name, res.SiteIterations)
		}
		for s, it := range res.LocalIterations {
			if it > 1 {
				t.Errorf("%s: seeded local solve of site %d took %d sweeps, want 1", name, s, it)
			}
		}
	}
	res, err := rk.Rank(seeded)
	check("Rank", res, err)
	// Every site listed as changed, so RankRefresh re-solves them all.
	res, err = rk.RankRefresh(all, seeded)
	check("RankRefresh", res, err)
}
