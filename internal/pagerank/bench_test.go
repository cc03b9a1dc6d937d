package pagerank

import (
	"fmt"
	"math/rand"
	"testing"

	"lmmrank/internal/graph"
	"lmmrank/internal/matrix"
	"lmmrank/internal/webgen"
)

func benchGraph(n, degree int, seed int64) *graph.Digraph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.NewDigraph(n)
	for i := 0; i < n; i++ {
		if i%17 == 3 {
			continue // leave dangling nodes, as real webs have
		}
		for k := 0; k < degree; k++ {
			g.AddLink(i, rng.Intn(n))
		}
	}
	return g
}

func BenchmarkSparsePageRank(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := benchGraph(n, 8, 1).TransitionMatrix()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Sparse(m, Config{Tol: 1e-9}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSolver times cold default-parameter solves on one reused Solver
// and reports how many sweeps a solve took, so a change to the sweep
// shows its count and not only its time.
func benchSolver(b *testing.B, m *matrix.CSR) {
	s := NewSolver(m)
	var sweeps int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Solve(Config{})
		if err != nil {
			b.Fatal(err)
		}
		sweeps = res.Iterations
	}
	b.ReportMetric(float64(sweeps), "sweeps/op")
}

// BenchmarkSolverSiteChain is the site layer's shape: 220 states that
// each keep ≈ 0.95 of their row on a self-loop (the intra-site links a
// SiteGraph aggregates), the rest on a handful of other sites.
func BenchmarkSolverSiteChain(b *testing.B) {
	const n = 220
	rng := rand.New(rand.NewSource(4))
	g := graph.NewDigraph(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, i, 95)
		for k := 0; k < 5; k++ {
			g.AddEdge(i, rng.Intn(n), 1)
		}
	}
	benchSolver(b, g.TransitionMatrix())
}

// BenchmarkSolverLocalSite is the document layer's shape: the 38k-page
// main site of a webgen web, no self-loops, navigation backbone plus
// random intra-site links.
func BenchmarkSolverLocalSite(b *testing.B) {
	dg := webgen.Generate(webgen.Config{Seed: 5, Sites: 2, MeanSitePages: 4750}).Graph
	sub, _ := dg.LocalSubgraph(0)
	benchSolver(b, sub.TransitionMatrix())
}

func BenchmarkDensePageRank(b *testing.B) {
	for _, n := range []int{50, 200} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			m := matrix.NewDense(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					m.Set(i, j, rng.Float64())
				}
			}
			m.NormalizeRows()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Dense(m, Config{Tol: 1e-9}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPersonalizedVsUniform(b *testing.B) {
	n := 10000
	m := benchGraph(n, 8, 3).TransitionMatrix()
	pers := matrix.Uniform(n)
	pers[0] = 0.5
	pers.Normalize()
	b.Run("uniform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Sparse(m, Config{Tol: 1e-9}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("personalized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Sparse(m, Config{Tol: 1e-9, Personalization: pers}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMinimalIrreducibility(b *testing.B) {
	u := paperU3()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Minimal(u, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
