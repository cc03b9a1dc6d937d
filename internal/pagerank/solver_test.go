package pagerank

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"lmmrank/internal/graph"
	"lmmrank/internal/markov"
	"lmmrank/internal/matrix"
)

func randomChainGraph(rng *rand.Rand, n int) *graph.Digraph {
	g := graph.NewDigraph(n)
	for i := 0; i < n; i++ {
		deg := rng.Intn(4) // zero-degree nodes exercise dangling handling
		for d := 0; d < deg; d++ {
			g.AddLink(i, rng.Intn(n))
		}
	}
	return g
}

func TestSolverMatchesSparseBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 15; trial++ {
		g := randomChainGraph(rng, rng.Intn(50)+2)
		m := g.TransitionMatrix()
		s := NewSolver(m)
		for _, cfg := range []Config{
			{},
			{Damping: 0.6},
			{Tol: 1e-8},
		} {
			want, err1 := Sparse(m, cfg)
			got, err2 := s.Solve(cfg)
			if err1 != nil || err2 != nil {
				t.Fatalf("trial %d: errs %v / %v", trial, err1, err2)
			}
			if got.Iterations != want.Iterations {
				t.Fatalf("trial %d: iterations %d vs %d", trial, got.Iterations, want.Iterations)
			}
			for i := range got.Scores {
				if got.Scores[i] != want.Scores[i] {
					t.Fatalf("trial %d: π[%d] = %g, Sparse %g", trial, i, got.Scores[i], want.Scores[i])
				}
			}
		}
	}
}

func TestSolverPersonalizationMatchesSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	g := randomChainGraph(rng, 30)
	m := g.TransitionMatrix()
	s := NewSolver(m)
	pers := matrix.NewVector(30)
	for i := range pers {
		pers[i] = rng.Float64() + 0.01
	}
	pers.Normalize()
	cfg := Config{Personalization: pers}
	want, err1 := Sparse(m, cfg)
	got, err2 := s.Solve(cfg)
	if err1 != nil || err2 != nil {
		t.Fatalf("errs %v / %v", err1, err2)
	}
	if got.Scores.L1Diff(want.Scores) != 0 {
		t.Errorf("personalized solve differs by %g", got.Scores.L1Diff(want.Scores))
	}
	// Switching back to uniform must not leak the previous teleport.
	gotU, err := s.Solve(Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantU, _ := Sparse(m, Config{})
	if gotU.Scores.L1Diff(wantU.Scores) != 0 {
		t.Error("uniform solve after personalized one differs")
	}
}

func TestSolverRejectsBadConfig(t *testing.T) {
	g := graph.NewDigraph(2)
	g.AddLink(0, 1)
	s := NewSolver(g.TransitionMatrix())
	if _, err := s.Solve(Config{Damping: 1.5}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("damping 1.5: err = %v", err)
	}
	if _, err := s.Solve(Config{Personalization: matrix.Vector{1}}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("short personalization: err = %v", err)
	}
}

// Steady-state Solve allocates nothing: dangling list, diagonal and
// iterate are precomputed, and a personalized Solve's teleport buffer is
// made by the first one. A Solver that only ever solved uniform holds no
// teleport buffer: the sweep reads the constant 1/n.
func TestSolverZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := randomChainGraph(rng, 100)
	s := NewSolver(g.TransitionMatrix())
	pers := matrix.Uniform(100)
	pers[0] += 0.5
	pers.Normalize()
	for _, cfg := range []Config{{}, {Personalization: pers}} {
		if _, err := s.Solve(cfg); err != nil {
			t.Fatal(err)
		}
		if personal := cfg.Personalization != nil; (s.v != nil) != personal {
			t.Errorf("teleport buffer held = %v after a solve personalized = %v", s.v != nil, personal)
		}
		var solveErr error
		allocs := testing.AllocsPerRun(20, func() {
			_, solveErr = s.Solve(cfg)
		})
		if solveErr != nil {
			t.Fatal(solveErr)
		}
		if allocs != 0 {
			t.Errorf("Solve (personalized %v) allocates %.1f per run, want 0", cfg.Personalization != nil, allocs)
		}
	}
}

// TestChainSharedBySolvers: goroutines that each Solve their own Solver
// over one Chain — as worker entries and Ranker cores share chains — get
// the serial answers bit for bit, uniform and personalized, at 2-byte
// sources (a site's chain) and at 4 (a whole web above
// matrix.MaxNarrowOrder). Run under the race detector (make race,
// race-multi), it shows the Chain is only read.
func TestChainSharedBySolvers(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for _, n := range []int{300, matrix.MaxNarrowOrder + 1} {
		chain := NewChain(randomChainGraph(rng, n).TransitionMatrix())
		pers := matrix.NewVector(n)
		for i := range pers {
			pers[i] = rng.Float64()
		}
		pers.Normalize()
		cfgs := []Config{{}, {Personalization: pers}, {Damping: 0.7}}
		want := make([]matrix.Vector, len(cfgs))
		for k, cfg := range cfgs {
			res, err := chain.NewSolver().Solve(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want[k] = res.Scores
		}
		const goroutines = 4
		var wg sync.WaitGroup
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := chain.NewSolver()
				for r := range 2 * len(cfgs) {
					k := (g + r) % len(cfgs)
					res, err := s.Solve(cfgs[k])
					if err != nil {
						t.Error(err)
						return
					}
					for i, x := range res.Scores {
						if math.Float64bits(x) != math.Float64bits(want[k][i]) {
							t.Errorf("order %d, goroutine %d, config %d: π[%d] = %g, serial %g", n, g, k, i, x, want[k][i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// Pin the damping sentinel: zero means DefaultDamping exactly (not "no
// damping"), explicit tiny values are honored, and non-positive damping
// cannot be expressed — it falls back or errors.
func TestDampingZeroSentinel(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	g := randomChainGraph(rng, 20)
	m := g.TransitionMatrix()

	zero, err1 := Sparse(m, Config{Damping: 0})
	def, err2 := Sparse(m, Config{Damping: DefaultDamping})
	if err1 != nil || err2 != nil {
		t.Fatalf("errs %v / %v", err1, err2)
	}
	if zero.Scores.L1Diff(def.Scores) != 0 || zero.Iterations != def.Iterations {
		t.Error("Damping: 0 is not identical to Damping: DefaultDamping")
	}

	tiny, err := Sparse(m, Config{Damping: 1e-6})
	if err != nil {
		t.Fatalf("tiny damping rejected: %v", err)
	}
	if tiny.Scores.L1Diff(def.Scores) == 0 {
		t.Error("tiny damping silently reinterpreted as default")
	}

	if _, err := Sparse(m, Config{Damping: -0.5}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative damping: err = %v", err)
	}
	if _, err := Sparse(m, Config{Damping: 1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("damping 1: err = %v", err)
	}
}

type namedChain struct {
	name string
	g    *graph.Digraph
}

// exactChains generates the small chains TestSolverMatchesExactStationary
// solves: every shape the in-place sweep treats specially.
func exactChains(rng *rand.Rand) []namedChain {
	var chains []namedChain

	// Self-loops holding up to 0.99 of a row, a few states without one.
	n := rng.Intn(30) + 2
	g := graph.NewDigraph(n)
	for i := 0; i < n; i++ {
		if i%5 != 4 {
			g.AddEdge(i, i, 99*rng.Float64())
		}
		g.AddEdge(i, rng.Intn(n), 0.5)
		g.AddEdge(i, rng.Intn(n), 0.5)
	}
	chains = append(chains, namedChain{"self-loops", g})

	// Most rows dangling, and a chain that is nothing but dangling rows.
	n = rng.Intn(30) + 2
	g = graph.NewDigraph(n)
	for i := 0; i < n; i += 3 {
		g.AddLink(i, rng.Intn(n))
	}
	chains = append(chains, namedChain{"mostly dangling", g},
		namedChain{"dangling only", graph.NewDigraph(rng.Intn(10) + 1)})

	// Identical rows of equal weights, with repeated links to merge.
	n = rng.Intn(30) + 4
	g = graph.NewDigraph(n)
	targets := []int{rng.Intn(n), rng.Intn(n), rng.Intn(n)}
	for i := 0; i < n; i++ {
		for _, to := range targets {
			g.AddLink(i, to)
			g.AddLink(i, to)
		}
	}
	chains = append(chains, namedChain{"duplicate rows", g},
		namedChain{"random", randomChainGraph(rng, rng.Intn(40)+2)})

	// Links of weight other than 1 — the entries a transition matrix
	// lists beside its per-row out-weights: multiplicities 1–7, as
	// repeated links and as heavy ones, weights 2.5 and 0.5, self-loops
	// among them and dangling rows.
	n = rng.Intn(30) + 2
	g = graph.NewDigraph(n)
	weights := []float64{1, 1, 1, 2, 3, 7, 2.5, 0.5}
	for i := 0; i < n; i++ {
		if i%6 == 5 {
			continue
		}
		for k := rng.Intn(5) + 1; k > 0; k-- {
			to := rng.Intn(n)
			if k == 1 && i%3 == 0 {
				to = i
			}
			g.AddEdge(i, to, weights[rng.Intn(len(weights))])
			if k%2 == 0 {
				g.AddLink(i, to)
			}
		}
	}
	chains = append(chains, namedChain{"multiplicities and fractions", g})

	// A site of one page, with and without a (heavy) link to itself.
	looped := graph.NewDigraph(1)
	looped.AddEdge(0, 0, 2.5)
	return append(chains, namedChain{"one row", graph.NewDigraph(1)}, namedChain{"one row, self-loop", looped})
}

// TestSolverMatchesExactStationary is the oracle the Solver-vs-Sparse pins
// no longer are now that both run the same sweep: the dense chain Mˆ of
// eq. (1), solved directly. It checks the bound Result.Residual's godoc
// states — ‖x − x*‖₁ ≤ Tol/(1−f) — from cold, warm and converged seeds,
// and that an exhausted budget is ErrNotConverged, never a false Converged.
func TestSolverMatchesExactStationary(t *testing.T) {
	const slack = 1e-12 // rounding in the direct solve and the sweeps
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 8; trial++ {
		for _, c := range exactChains(rng) {
			name, m := c.name, c.g.TransitionMatrix()
			n := m.Order()
			sparse := matrix.NewVector(n) // a teleport with zeros
			for i := 0; i < n; i += 2 {
				sparse[i] = rng.Float64() + 0.01
			}
			sparse.Normalize()
			s := NewSolver(m)
			for _, f := range []float64{0.5, 0.85, 0.99} {
				for _, pers := range []matrix.Vector{nil, sparse} {
					want, err := matrix.StationaryExact(markov.MaximalIrreducible(m.Dense(), f, pers))
					if err != nil {
						t.Fatalf("%s: exact solve: %v", name, err)
					}
					warm := want.Clone()
					warm[rng.Intn(n)] += 0.1
					bound := matrix.DefaultTol/(1-f) + slack
					check := func(seed string, cfg Config) Result {
						t.Helper()
						cfg.Damping, cfg.Personalization = f, pers
						res, err := s.Solve(cfg)
						if errors.Is(err, matrix.ErrNotConverged) && cfg.MaxIter == 1 {
							return res
						}
						if err != nil {
							t.Fatalf("%s f=%g %s: %v", name, f, seed, err)
						}
						if !res.Converged || res.Residual > matrix.DefaultTol || res.Iterations < 1 {
							t.Errorf("%s f=%g %s: Converged=%v Residual=%g Iterations=%d", name, f, seed, res.Converged, res.Residual, res.Iterations)
						}
						if d := res.Scores.L1Diff(want); d > bound {
							t.Errorf("%s f=%g %s: ‖x − x*‖₁ = %g > %g after %d sweeps", name, f, seed, d, bound, res.Iterations)
						}
						if sum := res.Scores.Sum(); math.Abs(sum-1) > slack {
							t.Errorf("%s f=%g %s: Σx = %g", name, f, seed, sum)
						}
						return res
					}
					// f = 0.99 contracts by as little as 0.99 a sweep.
					check("cold", Config{MaxIter: 5000})
					check("warm", Config{MaxIter: 5000, Start: warm})
					if res := check("converged", Config{Start: want}); res.Iterations != 1 {
						t.Errorf("%s f=%g: converged seed took %d sweeps, want 1", name, f, res.Iterations)
					}
					check("budget of one", Config{MaxIter: 1})
				}
			}
		}
	}
}
