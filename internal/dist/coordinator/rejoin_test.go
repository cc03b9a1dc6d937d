package coordinator

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lmmrank/internal/dist/chaos"
	"lmmrank/internal/dist/wire"
	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
)

// fastRedial is the rejoin-friendly policy the tests use: quick
// aggressive redials so a killed-then-surviving worker is back within
// milliseconds.
func fastRedial(failures int) RetryPolicy {
	return RetryPolicy{
		MaxWorkerFailures: failures,
		MaxRedials:        200,
		RedialBase:        time.Millisecond,
		RedialMax:         5 * time.Millisecond,
	}
}

// awaitRejoin waits, for at most 2 s, until every worker of c answers a
// Ping: until the redial loops have reconnected every lost one.
func awaitRejoin(t *testing.T, c *Coordinator) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for err := c.Ping(); err != nil; err = c.Ping() {
		if time.Now().After(deadline) {
			t.Fatalf("no redial reconnected the fleet within 2 s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkRejoined asserts a run after a rejoin: its ranks match the
// single-node reference, it lost nobody, it counts exactly one rejoiner,
// and it re-shipped that rejoiner nothing — its digest cache was warm.
func checkRejoined(t *testing.T, dg *graph.DocGraph, res *Result, ref *lmm.WebResult) {
	t.Helper()
	if d := docRank(dg, res).L1Diff(ref.DocRank); d >= 1e-9 {
		t.Errorf("‖rejoined − reference‖₁ = %g, want < 1e-9", d)
	}
	if res.Stats.WorkersLost != 0 {
		t.Errorf("WorkersLost = %d, want 0 (the loss was an earlier run's)", res.Stats.WorkersLost)
	}
	if res.Stats.WorkersRejoined != 1 {
		t.Errorf("WorkersRejoined = %d, want 1", res.Stats.WorkersRejoined)
	}
	if res.Stats.RejoinShardBytes != 0 {
		t.Errorf("RejoinShardBytes = %d, want 0 (the rejoiner's cache was warm)", res.Stats.RejoinShardBytes)
	}
}

// TestRejoinNextRunWarmReshipsNothing kills one worker's connection at
// its first local-rank exchange. Run 1 finishes on the survivors and
// starts the worker's redial loop; the worker process survives with its
// digest cache warm (run 1 loaded it), so run 2 — the first after the
// reconnect — places sites over the whole fleet again by LPT, declares
// the rejoiner its share by digest and ships it nothing:
// RejoinShardBytes == 0. Every redial is counted by one of the two runs.
func TestRejoinNextRunWarmReshipsNothing(t *testing.T) {
	c, kt, web, ref := lossFixture(t, wire.KindRankLocal)
	cfg := Config{Tol: 1e-13, MaxIter: 5000, Retry: fastRedial(1)}
	res1, err := rank(context.Background(), c, web, cfg)
	if err != nil {
		t.Fatalf("run 1 (loss): %v", err)
	}
	if !kt.died() {
		t.Fatal("scripted worker never reached its death trigger")
	}
	if res1.Stats.WorkersLost != 1 || res1.Stats.WorkersRejoined != 0 {
		t.Errorf("run 1: WorkersLost = %d, WorkersRejoined = %d, want 1 and 0 (a redial joins the next run)",
			res1.Stats.WorkersLost, res1.Stats.WorkersRejoined)
	}
	awaitRejoin(t, c)
	res2, err := rank(context.Background(), c, web, cfg)
	if err != nil {
		t.Fatalf("run 2 (rejoin): %v", err)
	}
	checkRejoined(t, web, res2, ref)
	if n := res1.Stats.RedialAttempts + res2.Stats.RedialAttempts; n < 1 {
		t.Errorf("RedialAttempts = %d over both runs, want >= 1", n)
	}
}

// TestRejoinFromPreviousRun kills a worker in run 1, whose policy asks
// for no redial: it stays lost. Run 2 has a redial budget and finds the
// worker broken at its start: it starts the worker's redial loop and
// finishes on the survivors without waiting for it. Run 3 counts the
// rejoin and re-ships nothing (the cache is warm from run 1's load).
func TestRejoinFromPreviousRun(t *testing.T) {
	c, kt, web, ref := lossFixture(t, wire.KindRankLocal)
	cfg := Config{Retry: RetryPolicy{MaxWorkerFailures: 1}}
	if _, err := rank(context.Background(), c, web, cfg); err != nil {
		t.Fatalf("run 1 (loss, no redial): %v", err)
	}
	if !kt.died() {
		t.Fatal("scripted worker never reached its death trigger")
	}
	if err := c.Ping(); err == nil {
		t.Fatal("the lost worker answers a Ping with no redial policy")
	}

	cfg = Config{Tol: 1e-13, MaxIter: 5000, Retry: fastRedial(1)}
	if _, err := rank(context.Background(), c, web, cfg); err != nil {
		t.Fatalf("run 2 (starts the redial): %v", err)
	}
	awaitRejoin(t, c)
	res, err := rank(context.Background(), c, web, cfg)
	if err != nil {
		t.Fatalf("run 3 (rejoin): %v", err)
	}
	checkRejoined(t, web, res, ref)
}

// TestFleetHealsAfterTotalLoss: a run that loses its last worker fails,
// and still leaves that worker's redial loop running, so a later run
// finds the fleet whole again. The one worker dies at its first
// local-rank exchange; run 1 fails with "all workers lost", and within
// 2 s a run succeeds, counts the rejoin and re-ships nothing. Runs before
// the reconnect fail with "no live workers".
func TestFleetHealsAfterTotalLoss(t *testing.T) {
	web := rankableWeb()
	ref, err := lmm.LayeredDocRank(web, lmm.WebConfig{})
	if err != nil {
		t.Fatalf("reference LayeredDocRank: %v", err)
	}
	kt := killAt(wire.KindRankLocal)
	_, addr := proxiedWorker(t, kt.script)
	c, err := Dial([]string{addr})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	cfg := Config{Tol: 1e-13, MaxIter: 5000, Retry: fastRedial(1)}
	if _, err := rank(context.Background(), c, web, cfg); err == nil || !strings.Contains(err.Error(), "all workers lost") {
		t.Fatalf("run 1: err = %v, want all workers lost", err)
	}
	if !kt.died() {
		t.Fatal("scripted worker never reached its death trigger")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		res, err := rank(context.Background(), c, web, cfg)
		if err == nil {
			checkRejoined(t, web, res, ref)
			return
		}
		if !strings.Contains(err.Error(), "no live workers") {
			t.Fatalf("a run after the total loss: %v, want success or no live workers", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("the fleet did not heal within 2 s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoRedialWithoutPolicy pins the default: MaxRedials = 0 keeps the
// pre-redial contract — a lost worker stays lost for the whole run and
// nothing redials it in the background.
func TestNoRedialWithoutPolicy(t *testing.T) {
	web := rankableWeb()
	_, a1 := startWorker(t)
	_, a2 := startWorker(t)
	kt := killAt(wire.KindRankLocal)
	_, a3 := proxiedWorker(t, kt.script)
	c, err := Dial([]string{a1, a2, a3})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	res, err := rank(context.Background(), c, web, Config{
		Tol:     1e-13,
		MaxIter: 5000,
		Retry:   RetryPolicy{MaxWorkerFailures: 1},
	})
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	if !kt.died() {
		t.Fatal("scripted worker never reached its death trigger")
	}
	if res.Stats.WorkersRejoined != 0 || res.Stats.RedialAttempts != 0 {
		t.Errorf("WorkersRejoined = %d, RedialAttempts = %d, want 0/0 without MaxRedials",
			res.Stats.WorkersRejoined, res.Stats.RedialAttempts)
	}
}

// TestRedialEndsWithItsRun: a redial still dialing when its run ends
// must not hold the run, and must end at Close. The victim dies at its
// first local-rank exchange; the survivor holds the re-rank of the moved
// sites until the victim's redial loop is inside its dial, whose hook
// then blocks until its context ends (or 5 s pass). A run that finishes,
// and one cancelled right there, must both return within a fraction of
// that hold — their own work is milliseconds — the cancelled one with
// exactly ctx.Err(). Closing the coordinator while the loop still dials
// must return as fast, the loop gone: Close waits for it.
func TestRedialEndsWithItsRun(t *testing.T) {
	const hold = 5 * time.Second
	for _, leg := range []string{"finished", "cancelled", "closed"} {
		t.Run(leg, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			dialing := make(chan struct{})
			var once sync.Once
			var rerank atomic.Int64
			_, a1 := proxiedWorker(t, func(_ int, req *wire.Request) chaos.Decision {
				if req.Kind == wire.KindRankLocal && rerank.Add(1) == 2 {
					select {
					case <-dialing:
					case <-time.After(hold):
					}
					if leg == "cancelled" {
						cancel()
					}
				}
				return chaos.Decision{Action: chaos.Pass}
			})
			kt := killAt(wire.KindRankLocal)
			_, a2 := proxiedWorker(t, kt.script)
			c, err := Dial([]string{a1, a2})
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer c.Close()
			var dialDone atomic.Bool
			c.dial = func(ctx context.Context, _, _ string) (net.Conn, error) {
				defer dialDone.Store(true)
				once.Do(func() { close(dialing) })
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-time.After(hold):
					return nil, errors.New("dial hook held for its whole budget")
				}
			}

			start := time.Now()
			_, err = rank(ctx, c, rankableWeb(), Config{Retry: RetryPolicy{
				MaxWorkerFailures: 1,
				MaxRedials:        1,
				RedialBase:        time.Millisecond,
			}})
			elapsed := time.Since(start)
			if !kt.died() {
				t.Fatal("scripted worker never reached its death trigger")
			}
			if leg == "cancelled" && err != ctx.Err() {
				t.Fatalf("cancelled run: err = %v, want exactly ctx.Err() (%v)", err, ctx.Err())
			}
			if leg != "cancelled" && err != nil {
				t.Fatalf("Rank with a lost worker: %v", err)
			}
			if elapsed > hold/5 {
				t.Errorf("run returned after %v: it waited on its redial's dial", elapsed)
			}
			if leg != "closed" {
				return
			}
			if dialDone.Load() {
				t.Fatal("the redial's dial returned before Close: the leg tested nothing")
			}
			start = time.Now()
			c.Close()
			if elapsed := time.Since(start); elapsed > hold/5 {
				t.Errorf("Close returned after %v: it waited out the redial's dial", elapsed)
			}
			if !dialDone.Load() {
				t.Error("Close returned while the redial loop was still dialing")
			}
		})
	}
}
