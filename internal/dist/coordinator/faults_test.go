package coordinator

import (
	"context"
	"net"
	"sync/atomic"
	"testing"

	"lmmrank/internal/dist/chaos"
	"lmmrank/internal/dist/wire"
	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
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
// single-node reference and that the loss, and the sites it moved, are
// visible in Stats.
func checkRecovery(t *testing.T, dg *graph.DocGraph, res *Result, ref *lmm.WebResult) {
	t.Helper()
	if d := docRank(dg, res).L1Diff(ref.DocRank); d >= 1e-9 {
		t.Errorf("‖recovered − reference‖₁ = %g, want < 1e-9", d)
	}
	if res.Stats.WorkersLost != 1 {
		t.Errorf("WorkersLost = %d, want 1", res.Stats.WorkersLost)
	}
	if res.Stats.Retries < 1 {
		t.Errorf("Retries = %d, want >= 1", res.Stats.Retries)
	}
	if res.Stats.Reassignments < 1 {
		t.Errorf("Reassignments = %d, want >= 1", res.Stats.Reassignments)
	}
}

// TestRecoversFromLossDuringLoad kills a peer at its first shard
// shipment: the run must reassign its sites and finish with ranks
// identical to single-node.
func TestRecoversFromLossDuringLoad(t *testing.T) {
	c, kt, web, ref := lossFixture(t, wire.KindLoad)
	res, err := rank(context.Background(), c, web, Config{Retry: RetryPolicy{MaxWorkerFailures: 1}})
	if err != nil {
		t.Fatalf("Rank with a peer dying at load: %v", err)
	}
	if !kt.died() {
		t.Fatal("scripted worker never reached its death trigger")
	}
	checkRecovery(t, web, res, ref)
}

// TestRecoversFromLossDuringLocalRank kills a peer mid local-DocRank —
// after it accepted its shards but before returning any ranks. Only its
// sites are re-ranked, on the survivors that inherited them.
func TestRecoversFromLossDuringLocalRank(t *testing.T) {
	c, kt, web, ref := lossFixture(t, wire.KindRankLocal)
	res, err := rank(context.Background(), c, web, Config{Retry: RetryPolicy{MaxWorkerFailures: 1}})
	if err != nil {
		t.Fatalf("Rank with a peer dying at local rank: %v", err)
	}
	if !kt.died() {
		t.Fatal("scripted worker never reached its death trigger")
	}
	checkRecovery(t, web, res, ref)
}

// TestLossWithoutRetryBudgetFails pins the zero-value behavior: no
// RetryPolicy means the first loss fails the run cleanly.
func TestLossWithoutRetryBudgetFails(t *testing.T) {
	c, _, web, _ := lossFixture(t, wire.KindRankLocal)
	if _, err := rank(context.Background(), c, web, Config{}); err == nil {
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
	if _, err := rank(context.Background(), c, web, Config{Retry: RetryPolicy{MaxWorkerFailures: 1}}); err == nil {
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
