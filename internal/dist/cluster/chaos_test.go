package cluster

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"lmmrank/internal/dist/chaos"
	"lmmrank/internal/dist/coordinator"
	"lmmrank/internal/dist/wire"
)

// soakRedial is the aggressive redial policy the soak runs under: a
// killed worker is usually back within a few rounds.
func soakRedial() coordinator.RetryPolicy {
	return coordinator.RetryPolicy{
		MaxWorkerFailures: 1,
		MaxRedials:        500,
		RedialBase:        100 * time.Microsecond,
		RedialMax:         time.Millisecond,
	}
}

// interruptAfter is a Checkpoint wrapper that cancels the run's context
// after n successful Saves — the soak's stand-in for a coordinator
// crash mid-SiteRank. The cancel lands between rounds, in sequential
// code, so the fleet's connections survive into the resume leg.
type interruptAfter struct {
	coordinator.Checkpoint
	n      int
	saves  int
	cancel context.CancelFunc
}

func (c *interruptAfter) Save(st *coordinator.CheckpointState) error {
	if err := c.Checkpoint.Save(st); err != nil {
		return err
	}
	c.saves++
	if c.saves == c.n {
		c.cancel()
	}
	return nil
}

// TestChaosSoak drives seeded-random kill/rejoin/resume cycles against
// every serving mode and demands the undisturbed answer every time:
// bitwise for central SiteRank (reassignment never regroups its
// arithmetic), < 1e-9 for the fleet modes (ownership changes reorder the
// partial-sum reduce). Workers die mid-protocol at
// a random message kind each cycle, rejoin through the redial loop with
// warm caches, and distributed runs are additionally interrupted at a
// checkpoint and resumed. The workers not being killed have every
// KindLoad delivered twice: a session is what the Load declares, so the
// retransmission changes nothing. The seed is fixed: one reproducible
// schedule per mode, stable under -race.
func TestChaosSoak(t *testing.T) {
	const fleet = 4
	const cycles = 6
	web := testWeb()

	modes := []struct {
		name    string
		cfg     coordinator.Config
		kinds   []wire.Kind // kill points reachable in this mode
		bitwise bool
		resume  bool // checkpointing applies (distributed SiteRank only)
	}{
		{
			name:    "centralSiteRank",
			cfg:     coordinator.Config{},
			kinds:   []wire.Kind{wire.KindLoad, wire.KindRankLocal},
			bitwise: true,
		},
		{
			// The tight tolerance keeps SiteRank iterating long enough
			// that every scripted interrupt lands before convergence and
			// every redialed worker rejoins mid-run.
			name:   "unbatchedSiteRank",
			cfg:    coordinator.Config{SiteRank: coordinator.SiteRankSync, Tol: 1e-12, MaxIter: 2000},
			kinds:  []wire.Kind{wire.KindLoad, wire.KindRankLocal, wire.KindPowerRound},
			resume: true,
		},
		{
			// No resume leg: a cancel lands inside concurrent driver
			// calls and poisons their connections, which is the
			// documented cost of the barrier-free phase — crash recovery
			// is the ordered schedule's job.
			name: "asyncSiteRank",
			cfg: coordinator.Config{
				SiteRank: coordinator.SiteRankAsync, Tol: 1e-12, MaxIter: 4000,
			},
			kinds: []wire.Kind{wire.KindLoad, wire.KindRankLocal, wire.KindAsyncUpdate},
		},
		{
			// Not bitwise despite the seed: a chaos kill diverges the
			// schedule from the undisturbed reference run.
			name: "orderedAsyncSiteRank",
			cfg: coordinator.Config{
				SiteRank: coordinator.SiteRankAsync, AsyncOrdered: true, AsyncSeed: 11,
				Tol: 1e-12, MaxIter: 4000,
			},
			kinds:  []wire.Kind{wire.KindLoad, wire.KindRankLocal, wire.KindAsyncUpdate},
			resume: true,
		},
	}

	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			// The undisturbed answer, from a proxy-free fleet.
			clRef, err := StartLocal(fleet)
			if err != nil {
				t.Fatalf("StartLocal: %v", err)
			}
			ref, err := clRef.Coord.Rank(web.Graph, m.cfg)
			clRef.Close()
			if err != nil {
				t.Fatalf("reference Rank: %v", err)
			}

			cl, err := StartChaosLocal(fleet)
			if err != nil {
				t.Fatalf("StartChaosLocal: %v", err)
			}
			defer cl.Close()

			rng := rand.New(rand.NewSource(7))
			var losses, rejoins, resumes int
			for cycle := 0; cycle < cycles; cycle++ {
				cfg := m.cfg
				cfg.Retry = soakRedial()

				victim := rng.Intn(fleet)
				kind := m.kinds[rng.Intn(len(m.kinds))]
				for _, p := range cl.Proxies {
					p.SetScript(chaos.DuplicateKind(wire.KindLoad))
				}
				cl.Proxies[victim].SetScript(chaos.KillAtKind(kind))

				if m.resume && cycle%2 == 1 {
					// Resume cycle: crash the coordinator's iteration at a
					// checkpoint, then resume on the same store — while the
					// kill script above may still fell a worker in either leg.
					store := coordinator.NewMemCheckpoint()
					ctx, cancel := context.WithCancel(context.Background())
					cfg.Checkpoint = &interruptAfter{
						Checkpoint: store, n: 1 + rng.Intn(4), cancel: cancel,
					}
					_, err := cl.Coord.RankCtx(ctx, web.Graph, cfg)
					cancel()
					if err == nil {
						t.Fatalf("cycle %d: interrupted run finished without cancelling", cycle)
					}
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("cycle %d: interrupted run: %v, want context.Canceled", cycle, err)
					}
					cfg.Checkpoint = store
					resumes++
				}

				res, err := cl.Coord.Rank(web.Graph, cfg)
				if err != nil {
					t.Fatalf("cycle %d (victim %d, kind %d): %v", cycle, victim, kind, err)
				}
				d := res.DocRank.L1Diff(ref.DocRank)
				if m.bitwise && d != 0 {
					t.Errorf("cycle %d: ‖soak − reference‖₁ = %g, want exactly 0", cycle, d)
				}
				if d >= 1e-9 {
					t.Errorf("cycle %d: ‖soak − reference‖₁ = %g, want < 1e-9", cycle, d)
				}
				losses += res.Stats.WorkersLost
				rejoins += res.Stats.WorkersRejoined
				cl.Proxies[victim].SetScript(nil)
			}
			if losses == 0 {
				t.Error("soak never killed a worker — the schedule exercised nothing")
			}
			// Mid-run re-admission needs a run long enough to still be
			// going when the redial lands — guaranteed only in the
			// distributed-SiteRank modes. (Central-mode cycles heal
			// between runs: a completed redial is installed at run end,
			// which Stats does not count as a rejoin.)
			if m.resume && rejoins == 0 {
				t.Error("soak never re-admitted a worker mid-run")
			}
			if m.resume && resumes == 0 {
				t.Error("soak never exercised checkpoint resume")
			}
			t.Logf("%s: %d losses, %d rejoins, %d resumes over %d cycles",
				m.name, losses, rejoins, resumes, cycles)
		})
	}
}
