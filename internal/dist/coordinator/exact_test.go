package coordinator

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/markov"
	"lmmrank/internal/matrix"
)

// exactWeb generates a small web whose SiteGraph holds every row shape a
// SiteRank round treats differently: site 0 links only to other sites
// (M[0,0] = 0, where a round divides nothing out and contracts least),
// site 1 keeps 0.99 of its links inside itself, site 2 links nowhere (a
// dangling row), and the rest link at random.
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

// TestFleetSiteRankMatchesExactStationary is the fleet's oracle, as
// TestSolverMatchesExactStationary is the in-place solve's: the sync
// rounds' πS against the dense chain Mˆ of eq. (1) solved directly —
// cold, and from the converged answer (which must cost one round) —
// held to the bound Stats.SiteRankRounds states, ‖x − x*‖₁ ≤ Tol/(1 − f).
func TestFleetSiteRankMatchesExactStationary(t *testing.T) {
	const slack = 1e-12 // rounding in the direct solve and the rounds
	addrs := make([]string, 3)
	for i := range addrs {
		_, addrs[i] = startWorker(t)
	}
	c, err := Dial(addrs)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 2; trial++ {
		rk, err := lmm.NewRanker(exactWeb(rng), lmm.RankerOptions{})
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
				cfg := Config{SiteRank: SiteRankSync, Damping: f, SitePersonalization: pers}
				name := fmt.Sprintf("trial %d f=%g personalized=%v", trial, f, pers != nil)
				check := func(start string, res *Result, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s %s: %v", name, start, err)
					}
					if d := res.SiteRank.L1Diff(want); d > bound {
						t.Errorf("%s %s: ‖x − x*‖₁ = %g > %g after %d rounds", name, start, d, bound, res.Stats.SiteRankRounds)
					}
				}

				res, err := c.RankPreparedCtx(ctx, rk, cfg, Warm{})
				check("cold", res, err)

				res, err = c.RankPreparedCtx(ctx, rk, cfg, Warm{SiteStart: want})
				check("converged seed", res, err)
				if res.Stats.SiteRankRounds != 1 {
					t.Errorf("%s: the converged seed took %d rounds, want 1", name, res.Stats.SiteRankRounds)
				}
			}
		}
	}
}
