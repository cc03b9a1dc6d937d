// Benchmarks regenerating every table and figure of the paper (one bench
// per experiment ID of cmd/experiments' usage list). Absolute times depend
// on the host; the *shape* — layered beating centralized, worker scaling,
// spam metrics — is asserted by the test suite.
package lmmrank

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"lmmrank/internal/blockrank"
	"lmmrank/internal/experiments"
	"lmmrank/internal/hits"
	"lmmrank/internal/lmm"
	"lmmrank/internal/rankutil"
	"lmmrank/internal/webgen"
)

// benchWeb is the bench-scale campus web: the paper's structure at a size
// every benchmark can afford (≈6k docs). Regenerated once per process.
var benchWebCache *webgen.Web

func benchWeb() *webgen.Web {
	if benchWebCache == nil {
		benchWebCache = webgen.Generate(webgen.Config{
			Seed:                2005,
			Sites:               100,
			MeanSitePages:       30,
			AuthorityPages:      8,
			IntraLinksPerPage:   3,
			InterLinkFraction:   0.25,
			DynamicClusterPages: 1000,
			DocClusterPages:     1000,
		})
	}
	return benchWebCache
}

// BenchmarkE1Fig2 regenerates the §2.3 worked example (Figure 2): all
// four approaches on the 12-state model.
func BenchmarkE1Fig2(b *testing.B) {
	approaches := []struct {
		name string
		fn   func(*Model, Config) (*Ranking, error)
	}{
		{"Approach1_PageRankOnW", Approach1},
		{"Approach2_DirectPowerOnW", Approach2},
		{"Approach3_AdjustedCompose", Approach3},
		{"Approach4_LayeredMethod", LayeredMethod},
	}
	for _, a := range approaches {
		b.Run(a.name, func(b *testing.B) {
			model := PaperExample()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := a.fn(model, Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3Fig3FlatPageRank regenerates Figure 3's ranking: flat
// PageRank over the full campus web.
func BenchmarkE3Fig3FlatPageRank(b *testing.B) {
	web := benchWeb()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lmm.GlobalPageRank(web.Graph, lmm.WebConfig{Tol: 1e-9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4Fig4LayeredDocRank regenerates Figure 4's ranking: the
// layered method (SiteRank + parallel local DocRanks + composition).
func BenchmarkE4Fig4LayeredDocRank(b *testing.B) {
	web := benchWeb()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{Tol: 1e-9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5SpamMetrics measures the contamination@k evaluation of both
// rankings (the Figure 3/4 comparison metrics).
func BenchmarkE5SpamMetrics(b *testing.B) {
	web := benchWeb()
	flat, err := lmm.GlobalPageRank(web.Graph, lmm.WebConfig{Tol: 1e-9})
	if err != nil {
		b.Fatal(err)
	}
	layered, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{Tol: 1e-9})
	if err != nil {
		b.Fatal(err)
	}
	flags := web.SpamFlags()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rankutil.ContaminationAtK(flat.Scores, flags, 15)
		_ = rankutil.ContaminationAtK(layered.DocRank, flags, 15)
		_ = rankutil.KendallTau(flat.Scores[:1000], layered.DocRank[:1000])
	}
}

// BenchmarkE6CentralizedVsLayered times Approach 2 (power method on the
// dense global W) against Approach 4 (the Layered Method) across model
// sizes — the §2.3.3 complexity claim.
func BenchmarkE6CentralizedVsLayered(b *testing.B) {
	sizes := []experiments.ModelSize{
		{Phases: 5, SubStates: 10},
		{Phases: 10, SubStates: 20},
		{Phases: 20, SubStates: 40},
	}
	for _, size := range sizes {
		model := experiments.BenchModel(size, 1)
		name := fmt.Sprintf("states=%d", model.TotalStates())
		b.Run("centralized/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Approach2(model, Config{Tol: 1e-10}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("layered/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := LayeredMethod(model, Config{Tol: 1e-10}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7Distributed measures the distributed pipeline end to end
// over loopback TCP for growing worker fleets.
func BenchmarkE7Distributed(b *testing.B) {
	web := benchWeb()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cl, err := StartCluster(workers)
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coordRank(cl, web.Graph, DistConfig{Tol: 1e-9}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistNonDefault is a warm central DistEngine over cmd/lmmload's
// web-mid web (≈114k documents) and 4 in-process workers, answering
// Query{Damping: 0.8}: the one query shape the snapshot cannot compose,
// so every Rank re-solves every site on the fleet's cached chains.
func BenchmarkDistNonDefault(b *testing.B) {
	dg := webgen.Generate(webgen.Config{Seed: 2005, Sites: 218, MeanSitePages: 400, DynamicClusterPages: 10000, DocClusterPages: 10000}).Graph
	cl, err := StartCluster(4)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	eng, err := NewDistEngine(cl, dg, DistConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ctx, q := context.Background(), Query{Damping: 0.8}
	if _, err := eng.Rank(ctx, Query{}); err != nil { // the fill ships every shard
		b.Fatal(err)
	}
	if res, err := eng.Rank(ctx, q); err != nil {
		b.Fatal(err)
	} else if res.Dist == nil || res.Dist.Messages == 0 {
		b.Fatal("a Damping 0.8 query did not reach the fleet")
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := eng.Rank(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8Personalization measures the two-layer personalized pipeline
// against the uniform one.
func BenchmarkE8Personalization(b *testing.B) {
	web := benchWeb()
	sitePers := make(Vector, web.Graph.NumSites())
	for i := range sitePers {
		sitePers[i] = 1 / float64(len(sitePers))
	}
	sitePers[1] *= 3
	sitePers.Normalize()
	b.Run("uniform", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{Tol: 1e-9}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("site-personalized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := lmm.WebConfig{Tol: 1e-9, SitePersonalization: sitePers}
			if _, err := lmm.LayeredDocRank(web.Graph, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The serving path: one precomputed Ranker answering repeated
	// personalized queries — the setup cost (SiteGraph, subgraphs, CSR
	// matrices) is paid once, outside the loop.
	b.Run("ranker-personalized", func(b *testing.B) {
		rk, err := NewRanker(web.Graph, RankerOptions{})
		if err != nil {
			b.Fatal(err)
		}
		cfg := lmm.WebConfig{Tol: 1e-9, SitePersonalization: sitePers}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rk.Rank(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineParallel measures the concurrent serving path: one
// LocalEngine answering the repeated-query workload from b.RunParallel
// goroutines (GOMAXPROCS of them by default). Per-query local fan-out is
// pinned to 1 — under load the cores are already busy answering distinct
// queries — so throughput should scale with GOMAXPROCS while the
// single-proc numbers stay comparable to E8's ranker-personalized case
// (the same work plus the caller-owned result copy).
func BenchmarkEngineParallel(b *testing.B) {
	web := benchWeb()
	sitePers := make(Vector, web.Graph.NumSites())
	for i := range sitePers {
		sitePers[i] = 1 / float64(len(sitePers))
	}
	sitePers[1] *= 3
	sitePers.Normalize()

	queries := []struct {
		name string
		q    Query
	}{
		{"uniform", Query{Tol: 1e-9}},
		{"site-personalized", Query{Tol: 1e-9, SitePersonalization: sitePers}},
		{"topk", Query{Tol: 1e-9, TopK: 15}},
	}
	for _, bench := range queries {
		b.Run(bench.name, func(b *testing.B) {
			eng, err := NewLocalEngine(web.Graph, EngineOptions{Parallelism: 1})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			// Warm the pool's first scratch before timing.
			if _, err := eng.Rank(ctx, bench.q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := eng.Rank(ctx, bench.q); err != nil {
						// Fatal would Goexit the wrong goroutine here;
						// Error + return is the RunParallel-safe form.
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// churnBenchWeb generates a private web per churn sub-benchmark (the
// shared benchWeb must stay immutable — other benchmarks reuse it).
func churnBenchWeb(seed int64) *webgen.Web {
	return webgen.Generate(webgen.Config{
		Seed:                seed,
		Sites:               80,
		MeanSitePages:       25,
		AuthorityPages:      6,
		IntraLinksPerPage:   2,
		InterLinkFraction:   0.25,
		DynamicClusterPages: 300,
		DocClusterPages:     300,
	})
}

// churnEdit applies one deterministic 1-site edit (two intra-site links).
func churnEdit(dg *DocGraph, i int) {
	site := SiteID(i % 80)
	docs := dg.Sites[site].Docs
	if len(docs) >= 3 {
		a, b, c := int(docs[i%len(docs)]), int(docs[(i+1)%len(docs)]), int(docs[(i+2)%len(docs)])
		if a != b {
			dg.G.AddLink(a, b)
		}
		if b != c {
			dg.G.AddLink(b, c)
		}
	}
}

// BenchmarkE9ChurnUpdate measures the churn serving path: after a 1-site
// edit, "cold-rebuild" pays a full NewLocalEngine + query, while
// "warm-update" runs Engine.Update — only the dirty site's structure
// rebuilds and the refresh solve warm-starts from the previous solution
// — for the same <1e-9 ranking. The gap (time and allocs) is the E-series
// record of what incremental serving buys.
func BenchmarkE9ChurnUpdate(b *testing.B) {
	ctx := context.Background()
	b.Run("cold-rebuild", func(b *testing.B) {
		web := churnBenchWeb(2026)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			churnEdit(web.Graph, i)
			eng, err := NewLocalEngine(web.Graph, EngineOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Rank(ctx, Query{Tol: 1e-9}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-update", func(b *testing.B) {
		web := churnBenchWeb(2026)
		eng, err := NewLocalEngine(web.Graph, EngineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Rank(ctx, Query{Tol: 1e-9}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			edit := func(dg *DocGraph) error { churnEdit(dg, i); return nil }
			if err := eng.Update(ctx, GraphDelta{Apply: edit}); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Rank(ctx, Query{Tol: 1e-9}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkUpdateOneSite is one Apply-path Update of one site on an idle
// engine, nothing else: copy-on-write clone, two links, the dirty site's
// rebuild and the warm refresh. B/op is what a snapshot costs beside the
// one it replaces — the clone's share of it is BenchmarkCloneCOW's in
// internal/graph.
func BenchmarkUpdateOneSite(b *testing.B) {
	ctx := context.Background()
	eng, err := NewLocalEngine(webgen.Generate(webgen.Default()).Graph, EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Rank(ctx, Query{TopK: 10}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := eng.Update(ctx, GraphDelta{
			Apply: func(dg *DocGraph) error {
				churnEdit(dg, i)
				return nil
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// / BenchmarkE10UpdateUnderLoad measures what snapshot serving buys: the
// per-query cost of Rank while a background churner runs Apply-path
// Updates back to back. Under the old drain-and-swap engine every
// Update stalled all queries for its full rebuild + refresh solve (and
// waited for them in turn); with copy-on-write snapshots queries never
// wait, so the number here stays in the neighborhood of an un-churned
// Rank instead of absorbing the update latency cliff.
func BenchmarkE10UpdateUnderLoad(b *testing.B) {
	ctx := context.Background()
	web := churnBenchWeb(2027)
	eng, err := NewLocalEngine(web.Graph, EngineOptions{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Rank(ctx, Query{Tol: 1e-9}); err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			i := i
			err := eng.Update(ctx, GraphDelta{
				Apply: func(dg *DocGraph) error {
					churnEdit(dg, i)
					return nil
				},
			})
			if err != nil {
				b.Error(err)
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := eng.Rank(ctx, Query{Tol: 1e-9}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkE13TenantServing measures the per-tenant serving kit end to
// end: an engine with keyed admission (4 tenants under quota)
// and similarity coalescing, answering a parallel mix of uniform and
// site-personalized top-k queries from the maintained index while a
// background churner keeps publishing 1-site Updates that patch it.
// This is the serving configuration the PR-10 gate pins: top-k queries
// skip the full re-rank, similar personalizations share one site-layer
// solve, and Updates never drain the query stream.
func BenchmarkE13TenantServing(b *testing.B) {
	ctx := context.Background()
	web := churnBenchWeb(2028)
	eng, err := NewLocalEngine(web.Graph, EngineOptions{
		Parallelism: 1,
		MaxInFlight: 64,
		TenantQuota: 16,
		Coalesce:    true,
		CoalesceTol: 1e-6,
	})
	if err != nil {
		b.Fatal(err)
	}
	ns := eng.DocGraph().NumSites()
	pers := make(Vector, ns)
	for i := range pers {
		pers[i] = (1 + float64(i%7)) / float64(ns*4)
	}
	var mass float64
	for _, x := range pers {
		mass += x
	}
	for i := range pers {
		pers[i] /= mass
	}
	tenants := [...]string{"alpha", "beta", "gamma", "delta"}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			i := i
			err := eng.Update(ctx, GraphDelta{
				Apply: func(dg *DocGraph) error {
					churnEdit(dg, i)
					return nil
				},
			})
			if err != nil {
				b.Error(err)
				return
			}
		}
	}()
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(seq.Add(1))
			q := Query{Tenant: tenants[i%len(tenants)], TopK: 10}
			if i%2 == 1 {
				q.SitePersonalization = pers
			}
			if _, err := eng.Rank(ctx, q); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkBaselines times the comparison algorithms on the same web:
// BlockRank (the closest prior work) and HITS (the other baseline the
// paper reviews).
func BenchmarkBaselines(b *testing.B) {
	web := benchWeb()
	b.Run("blockrank", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := blockrank.Compute(web.Graph, blockrank.Config{Tol: 1e-9}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hits", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hits.Run(web.Graph.G, hits.Config{Tol: 1e-9}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
