package lmm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lmmrank/internal/graph"
	"lmmrank/internal/markov"
	"lmmrank/internal/matrix"
)

// exactWeb generates a small web whose SiteGraph holds every row shape
// the in-place sweep treats differently: site 0 links only to other
// sites (M[0,0] = 0, no self-loop to solve exactly), site 1 keeps 0.99 of
// its links inside itself, site 2 links nowhere (a dangling row), and the
// rest link at random.
func exactWeb(rng *rand.Rand) *graph.DocGraph {
	sites := 5 + rng.Intn(4)
	b := graph.NewBuilder()
	docs := make([][]graph.DocID, sites)
	for s := range docs {
		for p := 0; p < 1+rng.Intn(4); p++ {
			url := fmt.Sprintf("http://s%d.example/p%d", s, p)
			docs[s] = append(docs[s], b.AddDocInSite(url, fmt.Sprintf("s%d.example", s)))
		}
	}
	pick := func(s int) graph.DocID { return docs[s][rng.Intn(len(docs[s]))] }
	for s, roster := range docs {
		for _, d := range roster {
			switch s {
			case 0:
				b.LinkIDs(d, pick(1+rng.Intn(sites-1)))
			case 1:
				for k := 0; k < 99; k++ {
					b.LinkIDs(d, pick(1))
				}
				b.LinkIDs(d, pick(3+rng.Intn(sites-3)))
			case 2:
			default:
				for k := 0; k <= rng.Intn(3); k++ {
					b.LinkIDs(d, pick(rng.Intn(sites)))
				}
			}
		}
	}
	return b.Build()
}

// TestRankSitesMatchesExactStationary is the site layer's oracle, as
// TestSolverMatchesExactStationary is the in-place solve's: RankSites' πS
// — the solve both engines weigh the site layer with — against the dense
// chain Mˆ of eq. (1) solved directly, cold and from the converged answer
// (which must cost one sweep), held to the bound a solve that stops at
// Tol carries, ‖x − x*‖₁ ≤ Tol/(1 − f).
func TestRankSitesMatchesExactStationary(t *testing.T) {
	const slack = 1e-12 // rounding in the direct solve and the sweeps
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 2; trial++ {
		rk, err := NewRanker(exactWeb(rng), RankerOptions{})
		if err != nil {
			t.Fatalf("NewRanker: %v", err)
		}
		m := rk.SiteGraph().G.TransitionMatrix()
		if d := m.At(0, 0); d != 0 || m.RowSums()[0] != 1 {
			t.Fatalf("trial %d: site 0 keeps %g on its diagonal, want a linked row with none", trial, d)
		}
		if d := m.At(1, 1); math.Abs(d-0.99) > 1e-12 {
			t.Fatalf("trial %d: site 1 keeps %g on its diagonal, want 0.99", trial, d)
		}
		if sum := m.RowSums()[2]; sum != 0 {
			t.Fatalf("trial %d: site 2's row sums to %g, want a dangling row", trial, sum)
		}
		ns := m.Order()
		sparse := matrix.NewVector(ns) // a site teleport with zeros
		for s := 0; s < ns; s += 2 {
			sparse[s] = rng.Float64() + 0.01
		}
		sparse.Normalize()
		for _, f := range []float64{0.5, 0.85} {
			for _, pers := range []matrix.Vector{nil, sparse} {
				want, err := matrix.StationaryExact(markov.MaximalIrreducible(m.Dense(), f, pers))
				if err != nil {
					t.Fatalf("exact solve: %v", err)
				}
				bound := matrix.DefaultTol/(1-f) + slack
				cfg := WebConfig{Damping: f, SitePersonalization: pers}
				name := fmt.Sprintf("trial %d f=%g personalized=%v", trial, f, pers != nil)
				check := func(start string, got matrix.Vector, sweeps int, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s %s: %v", name, start, err)
					}
					if d := got.L1Diff(want); d > bound {
						t.Errorf("%s %s: ‖x − x*‖₁ = %g > %g after %d sweeps", name, start, d, bound, sweeps)
					}
				}

				got, sweeps, err := rk.RankSites(cfg)
				check("cold", got, sweeps, err)

				cfg.SiteStart = want
				got, sweeps, err = rk.RankSites(cfg)
				check("converged seed", got, sweeps, err)
				if sweeps != 1 {
					t.Errorf("%s: the converged seed took %d sweeps, want 1", name, sweeps)
				}
			}
		}
	}
}
