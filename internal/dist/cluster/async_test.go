package cluster

import (
	"sync/atomic"
	"testing"
	"time"

	"lmmrank/internal/dist/chaos"
	"lmmrank/internal/dist/coordinator"
	"lmmrank/internal/dist/wire"
)

// sumInts is a tiny helper for checking stat decompositions.
func sumInts(xs []int) int {
	var s int
	for _, x := range xs {
		s += x
	}
	return s
}

// TestAsyncSiteRankAgreesWithSync is the convergence half of the
// barrier-free claim: the asynchronous mode must land on the same
// SiteRank fixed point as the synchronous barrier protocol, within the
// pinned tolerances — <1e-6 for the concurrent schedule (arrival order
// is scheduler-dependent), <1e-9 for the deterministic ordered
// schedule — and its accounting must decompose consistently.
func TestAsyncSiteRankAgreesWithSync(t *testing.T) {
	web := testWeb()

	cases := []struct {
		name     string
		cfg      coordinator.Config
		syncCfg  coordinator.Config
		agreeTol float64
	}{
		{
			name:     "concurrent",
			cfg:      coordinator.Config{SiteRank: coordinator.SiteRankAsync, Tol: 1e-8, MaxIter: 2000},
			syncCfg:  coordinator.Config{SiteRank: coordinator.SiteRankSync, Tol: 1e-8, MaxIter: 2000},
			agreeTol: 1e-6,
		},
		{
			name: "ordered",
			cfg: coordinator.Config{
				SiteRank: coordinator.SiteRankAsync, AsyncOrdered: true, AsyncSeed: 42,
				Tol: 1e-12, MaxIter: 4000,
			},
			syncCfg:  coordinator.Config{SiteRank: coordinator.SiteRankSync, Tol: 1e-12, MaxIter: 4000},
			agreeTol: 1e-9,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clSync, err := StartLocal(4)
			if err != nil {
				t.Fatalf("StartLocal: %v", err)
			}
			sync, err := clSync.Coord.Rank(web.Graph, tc.syncCfg)
			clSync.Close()
			if err != nil {
				t.Fatalf("synchronous Rank: %v", err)
			}

			cl, err := StartLocal(4)
			if err != nil {
				t.Fatalf("StartLocal: %v", err)
			}
			defer cl.Close()
			res, err := cl.Coord.Rank(web.Graph, tc.cfg)
			if err != nil {
				t.Fatalf("async Rank: %v", err)
			}

			if d := res.SiteRank.L1Diff(sync.SiteRank); d >= tc.agreeTol {
				t.Errorf("‖async − sync‖₁ on SiteRank = %g, want < %g", d, tc.agreeTol)
			}
			if d := res.DocRank.L1Diff(sync.DocRank); d >= tc.agreeTol {
				t.Errorf("‖async − sync‖₁ on DocRank = %g, want < %g", d, tc.agreeTol)
			}

			st := res.Stats
			if st.AsyncUpdatesMerged == 0 {
				t.Error("AsyncUpdatesMerged = 0 — the async phase never merged a sweep")
			}
			if st.AsyncVerifyRounds == 0 {
				t.Error("AsyncVerifyRounds = 0 — the candidate was never verified synchronously")
			}
			if got := sumInts(st.AsyncWorkerSweeps); got != st.AsyncUpdatesMerged {
				t.Errorf("per-worker sweeps sum to %d, want AsyncUpdatesMerged = %d",
					got, st.AsyncUpdatesMerged)
			}
			if got := sumInts(st.AsyncStalenessHist); got != st.AsyncUpdatesMerged {
				t.Errorf("staleness histogram sums to %d, want AsyncUpdatesMerged = %d",
					got, st.AsyncUpdatesMerged)
			}
			if st.SiteRankRounds != st.AsyncUpdatesMerged+st.AsyncVerifyRounds {
				t.Errorf("SiteRankRounds = %d, want merges + verification = %d",
					st.SiteRankRounds, st.AsyncUpdatesMerged+st.AsyncVerifyRounds)
			}
			if tc.cfg.AsyncOrdered {
				// The ordered schedule merges every sweep at staleness zero.
				if st.AsyncStalenessHist[0] != st.AsyncUpdatesMerged {
					t.Errorf("ordered schedule recorded staleness > 0: hist = %v", st.AsyncStalenessHist)
				}
			}
		})
	}
}

// TestAsyncSiteRankReproducible pins the seeded determinism claim: the
// ordered schedule with a fixed AsyncSeed and fleet must produce a
// bitwise-identical ranking across fresh clusters.
func TestAsyncSiteRankReproducible(t *testing.T) {
	web := testWeb()
	cfg := coordinator.Config{
		SiteRank: coordinator.SiteRankAsync, AsyncOrdered: true, AsyncSeed: 7,
		Tol: 1e-10, MaxIter: 4000,
	}
	var prevSite, prevDoc []float64
	for run := 0; run < 2; run++ {
		cl, err := StartLocal(4)
		if err != nil {
			t.Fatalf("StartLocal: %v", err)
		}
		res, err := cl.Coord.Rank(web.Graph, cfg)
		cl.Close()
		if err != nil {
			t.Fatalf("Rank (run %d): %v", run, err)
		}
		if prevSite == nil {
			prevSite, prevDoc = res.SiteRank, res.DocRank
			continue
		}
		for i, x := range res.SiteRank {
			if x != prevSite[i] {
				t.Fatalf("SiteRank differs at site %d: %g vs %g — ordered schedule is not reproducible",
					i, x, prevSite[i])
			}
		}
		for i, x := range res.DocRank {
			if x != prevDoc[i] {
				t.Fatalf("DocRank differs at doc %d: %g vs %g", i, x, prevDoc[i])
			}
		}
	}
}

// stragglerDelay is the per-message penalty the straggler tests inject.
// Each synchronous barrier round waits for the slowest worker, so a
// run's SiteRank phase pays ≈ rounds × stragglerDelay; the asynchronous
// phase pays ≈ a handful of delay periods regardless of round count.
const stragglerDelay = 10 * time.Millisecond

// TestChaosStragglerStallsSyncBarrier is the baseline measurement for
// the barrier-free claim: with one worker's SiteRank exchanges delayed,
// every synchronous barrier round stalls on the straggler, so the
// SiteRank phase must take at least (barriers × delay) wall-clock.
func TestChaosStragglerStallsSyncBarrier(t *testing.T) {
	web := testWeb()
	cases := []struct {
		name string
		cfg  coordinator.Config
		kind wire.Kind
		// roundsPerBarrier converts SiteRankRounds to barrier count.
		roundsPerBarrier int
	}{
		{
			name:             "sync",
			cfg:              coordinator.Config{SiteRank: coordinator.SiteRankSync, Tol: 1e-6},
			kind:             wire.KindPowerRound,
			roundsPerBarrier: 1,
		},
		{
			name:             "batched",
			cfg:              coordinator.Config{SiteRank: coordinator.SiteRankBatched, BatchRounds: 4, Tol: 1e-6},
			kind:             wire.KindBatchRounds,
			roundsPerBarrier: 4,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := StartChaosLocal(3)
			if err != nil {
				t.Fatalf("StartChaosLocal: %v", err)
			}
			defer cl.Close()
			cl.Proxies[1].SetScript(chaos.DelayKind(tc.kind, stragglerDelay))

			res, err := cl.Coord.Rank(web.Graph, tc.cfg)
			if err != nil {
				t.Fatalf("Rank: %v", err)
			}
			rounds := res.Stats.SiteRankRounds
			if rounds == 0 {
				t.Fatal("SiteRankRounds not recorded")
			}
			barriers := (rounds + tc.roundsPerBarrier - 1) / tc.roundsPerBarrier
			// Batched rounds rotate over the fleet, so only the barriers
			// that landed on the straggler pay; a third of them is a safe
			// floor with 3 workers. Unbatched barriers all pay.
			floor := time.Duration(barriers) * stragglerDelay * 9 / 10
			if tc.roundsPerBarrier > 1 {
				floor = time.Duration(barriers) * stragglerDelay / 4
			}
			if res.Stats.SiteRankDuration < floor {
				t.Errorf("SiteRank phase took %v over %d barriers with a %v straggler, want >= %v — the barrier stall is not visible",
					res.Stats.SiteRankDuration, barriers, stragglerDelay, floor)
			}
			t.Logf("%s: %d rounds (%d barriers) in %v", tc.name, rounds, barriers, res.Stats.SiteRankDuration)
		})
	}
}

// straggle returns a script that holds every SiteRank exchange — power
// rounds and asynchronous sweeps alike — for stragglerDelay, and the
// counter of the power rounds it held: each is one barrier at which the
// whole fleet waited out this worker's delay.
func straggle() (chaos.Script, *atomic.Int64) {
	waits := new(atomic.Int64)
	return func(_ int, req *wire.Request) chaos.Decision {
		switch req.Kind {
		case wire.KindPowerRound:
			waits.Add(1)
		case wire.KindAsyncUpdate:
		default:
			return chaos.Decision{Action: chaos.Pass}
		}
		return chaos.Decision{Action: chaos.Delay, Delay: stragglerDelay}
	}, waits
}

// TestChaosAsyncStragglerBeatsSync is the straggler half of the
// barrier-free claim, in counts that repeat rather than wall-clock: with
// the same worker delayed by well over 10x the natural exchange time
// (~0.3ms on loopback), the synchronous mode waits out the delay at a
// barrier once per round, and the asynchronous mode at none until its
// verification — while the straggler sleeps the other workers keep
// merging sweeps — and the two still agree.
//
// What barrier freedom buys in time is deliberately modest. Chaotic
// relaxation does not escape the information bottleneck — convergence
// still needs on the order of as many straggler refreshes as the
// synchronous run needs rounds (the asynchronous rate is set by the
// slowest-updated block, Chazan & Miranker) — so the asynchronous win is
// every cost the barrier adds on top of the delay: the reduce, the
// per-round fan-out, and all fast-worker compute, which async overlaps
// entirely with the straggler's sleep (typically 0.76–0.83 of the
// synchronous wall-clock, too close to 1 to assert on a shared host).
// The fleet is 8 wide so the straggler owns little of the chain.
func TestChaosAsyncStragglerBeatsSync(t *testing.T) {
	const fleet = 8
	web := testWeb()

	// Synchronous leg: the straggler stalls every barrier.
	clSync, err := StartChaosLocal(fleet)
	if err != nil {
		t.Fatalf("StartChaosLocal: %v", err)
	}
	script, syncWaits := straggle()
	clSync.Proxies[7].SetScript(script)
	sync, err := clSync.Coord.Rank(web.Graph, coordinator.Config{
		SiteRank: coordinator.SiteRankSync, Tol: 1e-6, MaxIter: 2000,
	})
	clSync.Close()
	if err != nil {
		t.Fatalf("synchronous Rank: %v", err)
	}
	if got, rounds := int(syncWaits.Load()), sync.Stats.SiteRankRounds; got != rounds || rounds == 0 {
		t.Fatalf("synchronous leg waited on the straggler at %d barriers over %d rounds, want one per round", got, rounds)
	}

	// Asynchronous leg: the same worker is delayed on every SiteRank
	// exchange it serves — its sweeps and the verification rounds alike,
	// so the comparison gives the straggler no free pass.
	clAsync, err := StartChaosLocal(fleet)
	if err != nil {
		t.Fatalf("StartChaosLocal: %v", err)
	}
	defer clAsync.Close()
	script, asyncWaits := straggle()
	clAsync.Proxies[7].SetScript(script)
	async, err := clAsync.Coord.Rank(web.Graph, coordinator.Config{
		SiteRank: coordinator.SiteRankAsync, Tol: 1e-6, MaxIter: 2000,
	})
	if err != nil {
		t.Fatalf("async Rank: %v", err)
	}
	st := async.Stats

	if d := async.SiteRank.L1Diff(sync.SiteRank); d >= 1e-4 {
		t.Errorf("‖async − sync‖₁ on SiteRank = %g under straggler, want < 1e-4", d)
	}
	if got := int(asyncWaits.Load()) - st.AsyncVerifyRounds; got != 0 {
		t.Errorf("the sweep phase waited on the straggler at %d barriers, want 0", got)
	}
	if st.AsyncVerifyRounds >= sync.Stats.SiteRankRounds {
		t.Errorf("async verification took %d barrier rounds vs %d synchronous rounds — the candidate was no closer than a cold start",
			st.AsyncVerifyRounds, sync.Stats.SiteRankRounds)
	}
	slow := st.AsyncWorkerSweeps[7]
	if slow == 0 || sumInts(st.AsyncWorkerSweeps)-slow <= (fleet-1)*slow {
		t.Errorf("sweeps merged per worker %v: the fast workers should out-sweep the straggler (index 7), not wait for it",
			st.AsyncWorkerSweeps)
	}
	t.Logf("straggler %v: sync %v (%d barrier waits) vs async %v (%d merges, %d of them the straggler's, + %d verification rounds)",
		stragglerDelay, sync.Stats.SiteRankDuration, syncWaits.Load(),
		st.SiteRankDuration, st.AsyncUpdatesMerged, slow, st.AsyncVerifyRounds)
}

// TestAsyncBudgetCountsFleetPasses pins what MaxIter bounds in the
// asynchronous mode: fleet passes — stretches in which every live
// worker's sweep was merged — not merges. Under a straggler the fast
// workers merge hundreds of sweeps per straggler sweep, as many as the
// wire lets them; a budget counted in merges would make convergence
// depend on how cheap the exchange is. MaxIter here is about twice the
// passes the run needs and far below merges/fleet.
func TestAsyncBudgetCountsFleetPasses(t *testing.T) {
	const fleet, maxIter = 8, 100
	web := testWeb()
	cl, err := StartChaosLocal(fleet)
	if err != nil {
		t.Fatalf("StartChaosLocal: %v", err)
	}
	defer cl.Close()

	cl.Proxies[7].SetScript(chaos.DelayKind(wire.KindAsyncUpdate, stragglerDelay))
	res, err := cl.Coord.Rank(web.Graph, coordinator.Config{SiteRank: coordinator.SiteRankAsync, Tol: 1e-6, MaxIter: maxIter})
	if err != nil {
		t.Fatalf("async Rank under a straggler with MaxIter %d: %v", maxIter, err)
	}
	st := res.Stats
	if st.AsyncUpdatesMerged <= maxIter*fleet {
		t.Errorf("AsyncUpdatesMerged = %d, want > MaxIter x fleet = %d — the straggler did not bite, so the run pins nothing",
			st.AsyncUpdatesMerged, maxIter*fleet)
	}
	if got := st.AsyncWorkerSweeps[7]; got > maxIter {
		t.Errorf("the straggler had %d sweeps merged, want <= MaxIter = %d: a fleet pass needs one", got, maxIter)
	}
	t.Logf("%d merges, %d of them the straggler's, under MaxIter %d", st.AsyncUpdatesMerged, st.AsyncWorkerSweeps[7], maxIter)
}
