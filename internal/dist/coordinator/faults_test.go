package coordinator

import (
	"errors"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"lmmrank/internal/dist/chaos"
	"lmmrank/internal/dist/wire"
	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/matrix"
)

// killer pairs a chaos kill script with a record of whether it fired,
// so tests can assert the scripted death actually happened (a test that
// passes because the fault never triggered proves nothing).
type killer struct {
	script chaos.Script
	fired  atomic.Bool
}

func killAt(k wire.Kind) *killer {
	kt := &killer{}
	inner := chaos.KillAtKind(k)
	kt.script = func(n int, req *wire.Request) chaos.Decision {
		d := inner(n, req)
		if d.Action == chaos.Drop {
			kt.fired.Store(true)
		}
		return d
	}
	return kt
}

func (k *killer) died() bool { return k.fired.Load() }

// proxiedWorker starts a real worker behind a chaos proxy running the
// given script and returns the proxy address — the coordinator dials
// the proxy, the worker process (and its digest cache) survives
// whatever the script does to the connection.
func proxiedWorker(t *testing.T, script chaos.Script) (*chaos.Proxy, string) {
	t.Helper()
	_, addr := startWorker(t)
	p, err := chaos.NewProxy(addr, script)
	if err != nil {
		t.Fatalf("chaos.NewProxy: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p, p.Addr()
}

// lossFleet dials a three-worker fleet whose victim index sits behind a
// chaos proxy scripted to die at its first dieOn request; the other two
// are directly connected.
func lossFleet(t *testing.T, dieOn wire.Kind, victim int) (*Coordinator, *killer) {
	t.Helper()
	kt := killAt(dieOn)
	addrs := make([]string, 3)
	for i := range addrs {
		if i == victim {
			_, addrs[i] = proxiedWorker(t, kt.script)
		} else {
			_, addrs[i] = startWorker(t)
		}
	}
	c, err := Dial(addrs)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c, kt
}

// lossFixture is lossFleet with the victim last, plus the test web and
// its reference single-node ranking.
func lossFixture(t *testing.T, dieOn wire.Kind) (*Coordinator, *killer, *graph.DocGraph, *lmm.WebResult) {
	t.Helper()
	web := rankableWeb()
	ref, err := lmm.LayeredDocRank(web, lmm.WebConfig{})
	if err != nil {
		t.Fatalf("reference LayeredDocRank: %v", err)
	}
	c, kt := lossFleet(t, dieOn, 2)
	return c, kt, web, ref
}

// checkRecovery asserts the post-loss result still matches the
// single-node reference and that the loss is visible in Stats.
func checkRecovery(t *testing.T, res *Result, ref *lmm.WebResult, wantReassign bool) {
	t.Helper()
	if d := res.DocRank.L1Diff(ref.DocRank); d >= 1e-9 {
		t.Errorf("‖recovered − reference‖₁ = %g, want < 1e-9", d)
	}
	if d := res.SiteRank.L1Diff(ref.SiteRank); d >= 1e-9 {
		t.Errorf("‖recovered − reference‖₁ on SiteRank = %g, want < 1e-9", d)
	}
	if res.Stats.WorkersLost != 1 {
		t.Errorf("WorkersLost = %d, want 1", res.Stats.WorkersLost)
	}
	if res.Stats.Retries < 1 {
		t.Errorf("Retries = %d, want >= 1", res.Stats.Retries)
	}
	if wantReassign && res.Stats.Reassignments < 1 {
		t.Errorf("Reassignments = %d, want >= 1", res.Stats.Reassignments)
	}
	if !wantReassign && res.Stats.Reassignments != 0 {
		t.Errorf("Reassignments = %d, want 0 (chain is replicated)", res.Stats.Reassignments)
	}
}

// TestRecoversFromLossDuringLoad kills a peer at its first shard
// shipment: the run must reassign its sites and finish with ranks
// identical to single-node.
func TestRecoversFromLossDuringLoad(t *testing.T) {
	c, kt, web, ref := lossFixture(t, wire.KindLoad)
	res, err := c.Rank(web, Config{Retry: RetryPolicy{MaxWorkerFailures: 1}})
	if err != nil {
		t.Fatalf("Rank with a peer dying at load: %v", err)
	}
	if !kt.died() {
		t.Fatal("scripted worker never reached its death trigger")
	}
	checkRecovery(t, res, ref, true)
}

// TestRecoversFromLossDuringLocalRank kills a peer mid local-DocRank —
// after it accepted its shards but before returning any ranks. Only its
// sites are re-ranked, on the survivors that inherited them.
func TestRecoversFromLossDuringLocalRank(t *testing.T) {
	c, kt, web, ref := lossFixture(t, wire.KindRankLocal)
	res, err := c.Rank(web, Config{Retry: RetryPolicy{MaxWorkerFailures: 1}})
	if err != nil {
		t.Fatalf("Rank with a peer dying at local rank: %v", err)
	}
	if !kt.died() {
		t.Fatal("scripted worker never reached its death trigger")
	}
	checkRecovery(t, res, ref, true)
}

// TestRecoversFromLossDuringSiteRank kills a peer inside the site-layer
// iteration of every fleet mode and at every exchange kind the driver
// issues. Row-sharded modes (sync, async) reassign the victim's chain
// rows — they ride inside the shards — and redo the interrupted
// exchange; the batched mode's chain is replicated, so it fails over
// with no reassignment at all. The async rows iterate to a tight Tol
// (against a reference at the same Tol): their trajectory differs from
// the single-process one, so only the fixed point is comparable.
func TestRecoversFromLossDuringSiteRank(t *testing.T) {
	tight := func(cfg Config) Config {
		cfg.Tol, cfg.MaxIter = 1e-12, 4000
		return cfg
	}
	ordered := Config{SiteRank: SiteRankAsync, AsyncOrdered: true, AsyncSeed: 3}
	cases := []struct {
		name   string
		cfg    Config
		dieOn  wire.Kind
		victim int
		// reassign is whether the loss must move sites.
		reassign bool
	}{
		{"sync", Config{SiteRank: SiteRankSync}, wire.KindPowerRound, 2, true},
		// The victim is fleet index 0 so the batch rotation hits it first.
		{"batched", Config{SiteRank: SiteRankBatched, BatchRounds: 4}, wire.KindBatchRounds, 0, false},
		{"async", tight(Config{SiteRank: SiteRankAsync}), wire.KindAsyncUpdate, 2, true},
		{"async-ordered", tight(ordered), wire.KindAsyncUpdate, 2, true},
		// The drain that retires the asynchronous epoch.
		{"async-ack", tight(ordered), wire.KindAsyncAck, 2, true},
		// An async run's first KindPowerRound is its first verification round.
		{"async-verify", tight(ordered), wire.KindPowerRound, 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			web := rankableWeb()
			ref, err := lmm.LayeredDocRank(web, lmm.WebConfig{Tol: tc.cfg.Tol, MaxIter: tc.cfg.MaxIter})
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			c, kt := lossFleet(t, tc.dieOn, tc.victim)
			tc.cfg.Retry = RetryPolicy{MaxWorkerFailures: 1}
			res, err := c.Rank(web, tc.cfg)
			if err != nil {
				t.Fatalf("Rank with a peer dying at kind %d: %v", tc.dieOn, err)
			}
			if !kt.died() {
				t.Fatal("scripted worker never reached its death trigger")
			}
			checkRecovery(t, res, ref, tc.reassign)
			if tc.cfg.SiteRank == SiteRankBatched && res.Stats.BatchMessagesSaved <= 0 {
				t.Errorf("BatchMessagesSaved = %d, want > 0", res.Stats.BatchMessagesSaved)
			}
			if tc.cfg.SiteRank == SiteRankAsync && res.Stats.AsyncVerifyRounds < 1 {
				t.Errorf("AsyncVerifyRounds = %d, want >= 1: the candidate was never verified", res.Stats.AsyncVerifyRounds)
			}
		})
	}
}

// TestTwoLossesInOneRoundChargeOneRetry pins what Stats.Retries counts
// in the barrier round: re-executions, not casualties. Two peers dying
// in the same power round cost two WorkersLost and one redone round.
// The placement is pinned so the victims own no site: nothing moves, and
// no re-shipment onto the other victim adds a retry of its own.
func TestTwoLossesInOneRoundChargeOneRetry(t *testing.T) {
	web := rankableWeb()
	ref, err := lmm.LayeredDocRank(web, lmm.WebConfig{})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	k1, k2 := killAt(wire.KindPowerRound), killAt(wire.KindPowerRound)
	_, a1 := startWorker(t)
	_, a2 := proxiedWorker(t, k1.script)
	_, a3 := startWorker(t)
	_, a4 := proxiedWorker(t, k2.script)
	c, err := Dial([]string{a1, a2, a3, a4})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	onSurvivors := make([]int, web.NumSites())
	for s := range onSurvivors {
		onSurvivors[s] = 2 * (s % 2) // fleet indices 0 and 2
	}
	res, err := c.Rank(web, Config{
		SiteRank: SiteRankSync, Assignment: onSurvivors, Retry: RetryPolicy{MaxWorkerFailures: 2},
	})
	if err != nil {
		t.Fatalf("Rank with two peers dying in one round: %v", err)
	}
	if !k1.died() || !k2.died() {
		t.Fatal("a scripted worker never reached its death trigger")
	}
	if d := res.DocRank.L1Diff(ref.DocRank); d >= 1e-9 {
		t.Errorf("‖recovered − reference‖₁ = %g, want < 1e-9", d)
	}
	if res.Stats.WorkersLost != 2 || res.Stats.Retries != 1 {
		t.Errorf("WorkersLost = %d, Retries = %d, want 2 losses and 1 redone round",
			res.Stats.WorkersLost, res.Stats.Retries)
	}
}

// TestLossWithoutRetryBudgetFails pins the zero-value behavior: no
// RetryPolicy means the first loss fails the run cleanly.
func TestLossWithoutRetryBudgetFails(t *testing.T) {
	c, _, web, _ := lossFixture(t, wire.KindRankLocal)
	if _, err := c.Rank(web, Config{}); err == nil {
		t.Fatal("Rank survived a worker loss with a zero retry budget")
	}
}

// TestSecondLossExhaustsBudget gives the run a budget of one failure
// and kills two peers: the run must fail, not loop.
func TestSecondLossExhaustsBudget(t *testing.T) {
	web := rankableWeb()
	_, a1 := startWorker(t)
	_, a2 := proxiedWorker(t, killAt(wire.KindRankLocal).script)
	_, a3 := proxiedWorker(t, killAt(wire.KindRankLocal).script)
	c, err := Dial([]string{a1, a2, a3})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Rank(web, Config{Retry: RetryPolicy{MaxWorkerFailures: 1}}); err == nil {
		t.Fatal("Rank survived two losses on a budget of one")
	}
}

// lyingPeer is a scripted fake peer: it relays every exchange to a real
// worker and lets corrupt rewrite the response on its way back — a live,
// well-framed peer that answers with garbage, which no transport check
// can catch.
func lyingPeer(t *testing.T, corrupt func(wire.Kind, *wire.Response)) string {
	t.Helper()
	_, waddr := startWorker(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer client.Close()
				up, err := net.Dial("tcp", waddr)
				if err != nil {
					return
				}
				defer up.Close()
				var counters wire.Counters
				cli, upc := wire.NewConn(client, &counters), wire.NewConn(up, &counters)
				for {
					var req wire.Request
					var resp wire.Response
					if cli.Dec.Decode(&req) != nil || upc.Enc.Encode(&req) != nil || upc.Dec.Decode(&resp) != nil {
						return
					}
					corrupt(req.Kind, &resp)
					if cli.Enc.Encode(&resp) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRejectsMalformedSiteVectors pins the one response validator: in
// every fleet mode a worker answering a site-layer exchange with a
// vector of the wrong length, or a non-finite entry or mass, fails the
// run at that exchange with an error naming the worker. Admitted, a NaN
// never crosses Tol: the synchronous modes would spin to MaxIter and the
// asynchronous estimate would burn the whole merge budget.
func TestRejectsMalformedSiteVectors(t *testing.T) {
	ordered := Config{SiteRank: SiteRankAsync, AsyncOrdered: true, AsyncSeed: 1}
	cases := []struct {
		name    string
		cfg     Config
		kind    wire.Kind
		corrupt func(*wire.Response)
	}{
		{"sync/NaN partial", Config{SiteRank: SiteRankSync}, wire.KindPowerRound,
			func(r *wire.Response) { r.Partial[0] = math.NaN() }},
		{"sync/Inf dangling", Config{SiteRank: SiteRankSync}, wire.KindPowerRound,
			func(r *wire.Response) { r.DanglingMass = math.Inf(1) }},
		{"sync/short partial", Config{SiteRank: SiteRankSync}, wire.KindPowerRound,
			func(r *wire.Response) { r.Partial = r.Partial[1:] }},
		{"batched/NaN iterate", Config{SiteRank: SiteRankBatched, BatchRounds: 4}, wire.KindBatchRounds,
			func(r *wire.Response) { r.X[0] = math.NaN() }},
		{"async/NaN mass", Config{SiteRank: SiteRankAsync}, wire.KindAsyncUpdate,
			func(r *wire.Response) { r.Mass = math.NaN() }},
		{"async-ordered/Inf partial", ordered, wire.KindAsyncUpdate,
			func(r *wire.Response) { r.Partial[0] = math.Inf(-1) }},
		{"async-verify/NaN dangling", ordered, wire.KindPowerRound,
			func(r *wire.Response) { r.DanglingMass = math.NaN() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The liar is fleet index 0 so the batch rotation asks it first.
			liar := lyingPeer(t, func(k wire.Kind, r *wire.Response) {
				if k == tc.kind {
					tc.corrupt(r)
				}
			})
			_, honest := startWorker(t)
			c, err := Dial([]string{liar, honest})
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer c.Close()
			_, err = c.Rank(rankableWeb(), tc.cfg)
			if err == nil {
				t.Fatal("Rank accepted a malformed site vector")
			}
			if errors.Is(err, matrix.ErrNotConverged) {
				t.Errorf("run iterated on the poisoned vector until its budget ran out: %v", err)
			}
			if !strings.Contains(err.Error(), liar) {
				t.Errorf("err = %v, want it to name the worker %s", err, liar)
			}
		})
	}
}
