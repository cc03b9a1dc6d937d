package lmm

import (
	"math/rand"
	"testing"

	"lmmrank/internal/graph"
	"lmmrank/internal/webgen"
)

func benchChurnWeb(b *testing.B) *graph.DocGraph {
	b.Helper()
	return randomWeb(rand.New(rand.NewSource(99)), 40, 2000)
}

// BenchmarkPrepare is the set-up rung a cold engine pays before its first
// query: NewRanker (validate, ready the graph, SiteGraph, roster indexes)
// and Prepare (every site's subgraph, transition matrix and chain) on the
// default generated web.
func BenchmarkPrepare(b *testing.B) {
	dg := webgen.Generate(webgen.Default()).Graph
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rk, err := NewRanker(dg, RankerOptions{})
		if err != nil {
			b.Fatal(err)
		}
		rk.Prepare()
	}
}

func BenchmarkLayeredDocRank(b *testing.B) {
	dg := benchChurnWeb(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := LayeredDocRank(dg, WebConfig{Tol: 1e-9}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGlobalPageRank(b *testing.B) {
	dg := benchChurnWeb(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GlobalPageRank(dg, WebConfig{Tol: 1e-9}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGlobalMatrixAssembly(b *testing.B) {
	m := PaperExample()
	local, err := LocalRanks(m, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GlobalMatrix(m, local)
	}
}

func BenchmarkHierarchyRank(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	h := randomHierarchy(rng, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LayeredHierarchyRank(h, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
