package matrix_test

import (
	"sync"
	"testing"

	"lmmrank/internal/graph"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
	"lmmrank/internal/webgen"
)

// paperSite is the transition matrix of the largest site of cmd/lmmload's
// web-paper web (≈ 462k documents; the site has 38 000), built once per
// process: the largest chain a fleet worker or a Ranker sweeps there.
var paperSite = sync.OnceValue(func() *matrix.CSR {
	dg := webgen.Generate(webgen.Config{Seed: 2005, Sites: 218, MeanSitePages: 1900, DynamicClusterPages: 10000, DocClusterPages: 10000}).Graph
	largest := graph.SiteID(0)
	for s := range dg.NumSites() {
		if dg.SiteSize(graph.SiteID(s)) > dg.SiteSize(largest) {
			largest = graph.SiteID(s)
		}
	}
	sub, _ := dg.LocalSubgraph(largest)
	return sub.TransitionMatrix()
})

// BenchmarkSweepSiteWidth times cold default-parameter solves of one
// pagerank.Solver over web-paper's largest site in each of the four forms
// a CSR takes: "narrow", its sources and its divisors and multiplicities
// 2 bytes wide — the chain as TransitionMatrix built it, the one a worker
// or a Ranker sweeps — "wide-values" (float64 values), "wide-sources"
// (4-byte sources) and "wide" (both), widened copies, so every
// instantiation of SweepLeftDamped compares on one chain. -count repeats
// each leg back to back; alternate the legs across runs to pair them.
func BenchmarkSweepSiteWidth(b *testing.B) {
	m := paperSite()
	for _, leg := range []struct {
		name                    string
		wideSources, wideValues bool
	}{
		{"narrow", false, false},
		{"wide-values", false, true},
		{"wide-sources", true, false},
		{"wide", true, true},
	} {
		b.Run(leg.name, func(b *testing.B) {
			chain := m
			if leg.wideSources || leg.wideValues {
				chain = matrix.AtWidth(m, leg.wideSources, leg.wideValues)
			}
			s := pagerank.NewSolver(chain)
			var sweeps int
			b.ReportAllocs()
			for b.Loop() {
				res, err := s.Solve(pagerank.Config{})
				if err != nil {
					b.Fatal(err)
				}
				sweeps = res.Iterations
			}
			b.ReportMetric(float64(sweeps), "sweeps/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sweeps*m.NNZ()), "ns/link-sweep")
		})
	}
}
