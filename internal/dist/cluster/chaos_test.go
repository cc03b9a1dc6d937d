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
// killed worker is usually back within a millisecond.
func soakRedial() coordinator.RetryPolicy {
	return coordinator.RetryPolicy{
		MaxWorkerFailures: 1,
		MaxRedials:        500,
		RedialBase:        100 * time.Microsecond,
		RedialMax:         time.Millisecond,
	}
}

// interruptAt returns a proxy script that cancels the run at the first
// KindRankLocal it relays — the soak's stand-in for a coordinator crash
// mid-run — and delivers every KindLoad twice, as the soak's other
// proxies do. It waits before the cancel so the local-rank exchanges
// with the other workers have answered: the cancel poisons only the
// scripted connection, and the next run has survivors to start from
// while it redials this one.
func interruptAt(cancel context.CancelFunc) chaos.Script {
	var ranks atomic.Int64
	dup := chaos.DuplicateKind(wire.KindLoad)
	return func(exchange int, req *wire.Request) chaos.Decision {
		if req.Kind == wire.KindRankLocal && ranks.Add(1) == 1 {
			time.Sleep(20 * time.Millisecond)
			cancel()
		}
		return dup(exchange, req)
	}
}

// TestChaosSoak drives seeded-random kill/rejoin/interrupt cycles and
// demands the undisturbed answer bitwise every time: reassignment never
// regroups a run's arithmetic. Workers die mid-protocol at a random
// message kind each cycle and rejoin through the redial loop with warm
// caches; in the second leg every other run is first cancelled in its
// local phase, and the next run on the same coordinator redials the
// connections the cancel poisoned and must still give the undisturbed
// answer. The workers not being killed have every KindLoad delivered
// twice: a session is what the Load declares, so the retransmission
// changes nothing. The seed is fixed: one reproducible schedule per leg,
// stable under -race. The second leg's name and config are those of the
// retired fleet SiteRank schedule, which a run ignores.
func TestChaosSoak(t *testing.T) {
	const fleet = 4
	const cycles = 6
	web := testWeb()

	modes := []struct {
		name       string
		cfg        coordinator.Config
		interrupts bool
	}{
		{name: "centralSiteRank", cfg: coordinator.Config{}},
		{name: "unbatchedSiteRank", cfg: coordinator.Config{SiteRank: syncIgnored, Tol: 1e-12, MaxIter: 2000}, interrupts: true},
	}
	kinds := []wire.Kind{wire.KindLoad, wire.KindRankLocal} // the kill points

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
				kind := kinds[rng.Intn(len(kinds))]
				for _, p := range cl.Proxies {
					p.SetScript(chaos.DuplicateKind(wire.KindLoad))
				}
				cl.Proxies[victim].SetScript(chaos.KillAtKind(kind))

				if m.interrupts && cycle%2 == 1 {
					// Interrupt cycle: cancel the run in its local phase,
					// through a worker other than the victim — while the kill
					// script above may still fell a worker in either run.
					ctx, cancel := context.WithCancel(context.Background())
					cut := (victim + 1) % fleet
					cl.Proxies[cut].SetScript(interruptAt(cancel))
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
				if d := docRank(web.Graph, res).L1Diff(docRank(web.Graph, ref)); d != 0 {
					t.Errorf("cycle %d: ‖soak − reference‖₁ = %g, want exactly 0", cycle, d)
				}
				losses += res.Stats.WorkersLost
				rejoins += res.Stats.WorkersRejoined
				cl.Proxies[victim].SetScript(nil)
			}
			if losses == 0 {
				t.Error("soak never killed a worker — the schedule exercised nothing")
			}
			// Cycles heal mostly between runs: a redial that completes
			// after the local phase is installed at run end, which Stats
			// does not count as a rejoin (TestRejoinMidRunWarmReshipsNothing
			// pins the mid-run re-admission).
			if m.interrupts && interrupts == 0 {
				t.Error("soak never interrupted a run")
			}
			t.Logf("%s: %d losses, %d rejoins, %d interrupts over %d cycles",
				m.name, losses, rejoins, interrupts, cycles)
		})
	}
}

// stragglerDelay is the per-message penalty the straggler test injects.
const stragglerDelay = 10 * time.Millisecond

// TestChaosStragglerStallsSyncBarrier measures what a slow worker costs
// a run: its local phase, and nothing after it. The retired sync
// schedule stalled every barrier round on the straggler; a run now solves
// no site layer and sends the fleet no exchange after its local phase,
// so with one worker's every local-rank exchange delayed the local phase
// waits at least one delay and the run reports no site-layer work — also
// for a config that still names the retired schedule, which a run
// ignores.
func TestChaosStragglerStallsSyncBarrier(t *testing.T) {
	web := testWeb()
	cases := []struct {
		name string
		cfg  coordinator.Config
	}{
		{"sync", coordinator.Config{SiteRank: syncIgnored, Tol: 1e-6}},
		{"central", coordinator.Config{Tol: 1e-6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := StartChaosLocal(3)
			if err != nil {
				t.Fatalf("StartChaosLocal: %v", err)
			}
			defer cl.Close()
			cl.Proxies[1].SetScript(chaos.DelayKind(wire.KindRankLocal, stragglerDelay))

			res, err := rank(context.Background(), cl, web.Graph, tc.cfg)
			if err != nil {
				t.Fatalf("Rank: %v", err)
			}
			if res.Stats.LocalRankDuration < stragglerDelay {
				t.Errorf("local phase took %v, want >= %v: the straggler was not delayed", res.Stats.LocalRankDuration, stragglerDelay)
			}
			if res.Stats.SiteRankRounds != 0 || res.Stats.SiteRankDuration != 0 {
				t.Errorf("the run reports %d site sweeps in %v, want none: it solves no site layer", res.Stats.SiteRankRounds, res.Stats.SiteRankDuration)
			}
			t.Logf("%s: local phase %v", tc.name, res.Stats.LocalRankDuration)
		})
	}
}
