package cluster

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
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

// interruptAt returns a proxy script that cancels the run at the n-th
// KindPowerRound it relays — the soak's stand-in for a coordinator crash
// mid-SiteRank — and delivers every KindLoad twice, as the soak's other
// proxies do. It waits before the cancel so the round's exchanges with
// the other workers have answered: the cancel poisons only the scripted
// connection, and the next run has survivors to start from while it
// redials this one.
func interruptAt(n int, cancel context.CancelFunc) chaos.Script {
	var rounds atomic.Int64
	dup := chaos.DuplicateKind(wire.KindLoad)
	return func(exchange int, req *wire.Request) chaos.Decision {
		if req.Kind == wire.KindPowerRound && rounds.Add(1) == int64(n) {
			time.Sleep(20 * time.Millisecond)
			cancel()
		}
		return dup(exchange, req)
	}
}

// TestChaosSoak drives seeded-random kill/rejoin/interrupt cycles against
// every serving mode and demands the undisturbed answer every time:
// bitwise for central SiteRank (reassignment never regroups its
// arithmetic), < 1e-9 for the sync rounds (ownership changes reorder the
// partial-sum reduce). Workers die mid-protocol at
// a random message kind each cycle, rejoin through the redial loop with
// warm caches, and every other distributed run is cancelled mid-SiteRank
// first: the next run on the same coordinator redials the connections
// the cancel poisoned and must still give the undisturbed answer. The
// workers not being killed have every
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
		rounds  bool // SiteRank runs rounds on the fleet: interrupts and mid-run rejoins apply
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
			rounds: true,
		},
	}

	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			// The undisturbed answer, from a proxy-free fleet.
			clRef, err := StartLocal(fleet)
			if err != nil {
				t.Fatalf("StartLocal: %v", err)
			}
			ref, err := rank(context.Background(), clRef, web.Graph, m.cfg)
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
			var losses, rejoins, interrupts int
			for cycle := 0; cycle < cycles; cycle++ {
				cfg := m.cfg
				cfg.Retry = soakRedial()

				victim := rng.Intn(fleet)
				kind := m.kinds[rng.Intn(len(m.kinds))]
				for _, p := range cl.Proxies {
					p.SetScript(chaos.DuplicateKind(wire.KindLoad))
				}
				cl.Proxies[victim].SetScript(chaos.KillAtKind(kind))

				if m.rounds && cycle%2 == 1 {
					// Interrupt cycle: cancel the run at one of its first
					// rounds, through a worker other than the victim — while
					// the kill script above may still fell a worker in either
					// run.
					ctx, cancel := context.WithCancel(context.Background())
					cut := (victim + 1) % fleet
					cl.Proxies[cut].SetScript(interruptAt(1+rng.Intn(4), cancel))
					_, err := rank(ctx, cl, web.Graph, cfg)
					cancel()
					cl.Proxies[cut].SetScript(chaos.DuplicateKind(wire.KindLoad))
					if err == nil {
						t.Fatalf("cycle %d: interrupted run finished without cancelling", cycle)
					}
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("cycle %d: interrupted run: %v, want context.Canceled", cycle, err)
					}
					interrupts++
				}

				res, err := rank(context.Background(), cl, web.Graph, cfg)
				if err != nil {
					t.Fatalf("cycle %d (victim %d, kind %d): %v", cycle, victim, kind, err)
				}
				d := docRank(web.Graph, res).L1Diff(docRank(web.Graph, ref))
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
			// distributed-SiteRank mode. (Central-mode cycles heal
			// between runs: a completed redial is installed at run end,
			// which Stats does not count as a rejoin.)
			if m.rounds && rejoins == 0 {
				t.Error("soak never re-admitted a worker mid-run")
			}
			if m.rounds && interrupts == 0 {
				t.Error("soak never interrupted a run")
			}
			t.Logf("%s: %d losses, %d rejoins, %d interrupts over %d cycles",
				m.name, losses, rejoins, interrupts, cycles)
		})
	}
}

// stragglerDelay is the per-message penalty the straggler test injects.
// Each synchronous barrier round waits for the slowest worker, so a
// run's SiteRank phase pays ≈ rounds × stragglerDelay.
const stragglerDelay = 10 * time.Millisecond

// TestChaosStragglerStallsSyncBarrier measures what a slow worker costs
// the site layer: with one worker's SiteRank exchanges delayed, every
// synchronous barrier round stalls on the straggler, so the SiteRank
// phase must take at least (barriers × delay) wall-clock. The central
// solve sends the fleet no site-layer exchange at all, so under the same
// straggler its SiteRank phase stays below one delay: on a web whose site
// layer is N_S-sized the central solve dominates every fleet schedule.
func TestChaosStragglerStallsSyncBarrier(t *testing.T) {
	web := testWeb()
	cases := []struct {
		name string
		cfg  coordinator.Config
	}{
		{"sync", coordinator.Config{SiteRank: coordinator.SiteRankSync, Tol: 1e-6}},
		{"central", coordinator.Config{Tol: 1e-6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := StartChaosLocal(3)
			if err != nil {
				t.Fatalf("StartChaosLocal: %v", err)
			}
			defer cl.Close()
			cl.Proxies[1].SetScript(chaos.DelayKind(wire.KindPowerRound, stragglerDelay))

			res, err := rank(context.Background(), cl, web.Graph, tc.cfg)
			if err != nil {
				t.Fatalf("Rank: %v", err)
			}
			barriers := res.Stats.SiteRankRounds
			if barriers == 0 {
				t.Fatal("SiteRankRounds not recorded")
			}
			if tc.cfg.SiteRank == coordinator.SiteRankCentral {
				if res.Stats.SiteRankDuration >= stragglerDelay {
					t.Errorf("central SiteRank took %v with a %v straggler, want less than one delay: it waits on no worker",
						res.Stats.SiteRankDuration, stragglerDelay)
				}
				t.Logf("%s: %d sweeps in %v", tc.name, barriers, res.Stats.SiteRankDuration)
				return
			}
			// Every barrier waits for the straggler.
			floor := time.Duration(barriers) * stragglerDelay * 9 / 10
			if res.Stats.SiteRankDuration < floor {
				t.Errorf("SiteRank phase took %v over %d barriers with a %v straggler, want >= %v — the barrier stall is not visible",
					res.Stats.SiteRankDuration, barriers, stragglerDelay, floor)
			}
			t.Logf("%s: %d barrier rounds in %v", tc.name, barriers, res.Stats.SiteRankDuration)
		})
	}
}
