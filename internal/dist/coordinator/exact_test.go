package coordinator

import (
	"context"
	"encoding/hex"
	"errors"
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
// TestSolverMatchesExactStationary is the in-place solve's: every fleet
// schedule's πS against the dense chain Mˆ of eq. (1) solved directly —
// cold, from the converged answer (which must cost one round) and
// resumed from a checkpoint — held to the bound Stats.SiteRankRounds
// states, ‖x − x*‖₁ ≤ Tol/(1 − f).
func TestFleetSiteRankMatchesExactStationary(t *testing.T) {
	const slack = 1e-12 // rounding in the direct solve and the rounds
	modes := []struct {
		name string
		cfg  Config
	}{
		{"sync", Config{SiteRank: SiteRankSync}},
		{"asyncOrdered", Config{SiteRank: SiteRankAsync, AsyncOrdered: true, AsyncSeed: 11}},
		{"async", Config{SiteRank: SiteRankAsync}},
	}
	addrs := make([]string, 3)
	for i := range addrs {
		_, addrs[i] = startWorker(t)
	}
	// Each run dials its own coordinator: an interrupted concurrent async
	// run leaves its connections poisoned, and resuming on a fresh
	// coordinator is what a restarted process does anyway.
	rank := func(ctx context.Context, rk *lmm.Ranker, cfg Config, warm Warm) (*Result, error) {
		c, err := Dial(addrs)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer c.Close()
		return c.RankPreparedCtx(ctx, rk, cfg, warm)
	}
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
				for _, mode := range modes {
					cfg := mode.cfg
					cfg.Damping, cfg.SitePersonalization = f, pers
					name := fmt.Sprintf("trial %d f=%g personalized=%v %s", trial, f, pers != nil, mode.name)
					check := func(start string, res *Result, err error) {
						t.Helper()
						if err != nil {
							t.Fatalf("%s %s: %v", name, start, err)
						}
						if d := res.SiteRank.L1Diff(want); d > bound {
							t.Errorf("%s %s: ‖x − x*‖₁ = %g > %g after %d rounds", name, start, d, bound, res.Stats.SiteRankRounds)
						}
					}

					res, err := rank(ctx, rk, cfg, Warm{})
					check("cold", res, err)

					res, err = rank(ctx, rk, cfg, Warm{SiteStart: want})
					check("converged seed", res, err)
					if res.Stats.SiteRankRounds != 1 {
						t.Errorf("%s: the converged seed took %d rounds, want 1", name, res.Stats.SiteRankRounds)
					}

					store := NewMemCheckpoint()
					cut, cancel := context.WithCancel(ctx)
					cfg.Checkpoint = &cancelAfter{Checkpoint: store, n: 1, cancel: cancel}
					if _, err := rank(cut, rk, cfg, Warm{}); !errors.Is(err, context.Canceled) {
						t.Fatalf("%s: interrupted run: err = %v, want context.Canceled", name, err)
					}
					cancel()
					cfg.Checkpoint = store
					res, err = rank(ctx, rk, cfg, Warm{})
					check("resumed", res, err)
					if res.Stats.ResumedFromRound < 1 {
						t.Errorf("%s: resumed from round %d, want a checkpointed round", name, res.Stats.ResumedFromRound)
					}
				}
			}
		}
	}
}

// TestCheckpointDigestNamesTheIteration pins every mode's checkpoint
// digest on a fixed web. Equal digests promise the identical float
// sequence — that is what lets a run resume another process's snapshot —
// so any change to a round's arithmetic must change these values, making
// the old iteration's snapshots read as foreign. They changed when the
// rounds became point-Jacobi steps.
func TestCheckpointDigestNamesTheIteration(t *testing.T) {
	rk, err := lmm.NewRanker(rankableWeb(), lmm.RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"sync", Config{SiteRank: SiteRankSync},
			"ed190f3d5b871228fad6f2da4415335eb39d02996ca6a1315c014aaaff9c5b70"},
		{"async", Config{SiteRank: SiteRankAsync},
			"8ac82d64bf5756a22db61092e6c3648c2aff025ab8903cde795773388cce36ae"},
		{"asyncOrdered", Config{SiteRank: SiteRankAsync, AsyncOrdered: true, AsyncSeed: 9},
			"1457c92c887d818d43704ddadb29f65eee771ef0affbb10e29bd8bc075181350"},
	} {
		r := &run{c: &Coordinator{}, cfg: tc.cfg, rk: rk, ns: rk.NumSites(), stats: &Stats{}}
		r.hashShards()
		digest := r.checkpointDigest()
		if got := hex.EncodeToString(digest[:]); got != tc.want {
			t.Errorf("%s: checkpoint digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
