package coordinator

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"lmmrank/internal/dist/chaos"
	"lmmrank/internal/dist/wire"
)

// startHangingWorker is the cancellation twin of the kill-scripted
// fixtures: a real worker behind a chaos proxy whose script blocks at
// the first request of kind hangOn — the connection stays open, no
// bytes move — until release is called. To the coordinator this is a
// stalled peer: without a context (or the per-call timeout) the
// exchange would block indefinitely.
func startHangingWorker(t *testing.T, hangOn wire.Kind) (addr string, release func()) {
	t.Helper()
	_, waddr := startWorker(t)
	blocked := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(blocked) }) }
	p, err := chaos.NewProxy(waddr, func(_ int, req *wire.Request) chaos.Decision {
		if req.Kind == hangOn {
			<-blocked // the scripted stall
			return chaos.Decision{Action: chaos.Drop}
		}
		return chaos.Decision{Action: chaos.Pass}
	})
	if err != nil {
		t.Fatalf("chaos.NewProxy: %v", err)
	}
	// LIFO cleanups: release the blocked script before the proxy's
	// Close waits for its serving goroutines.
	t.Cleanup(func() { p.Close() })
	t.Cleanup(release)
	return p.Addr(), release
}

// TestRankCtxPreCancelled pins the cheap path: an already-cancelled
// context fails the run before any wire traffic, returning ctx.Err().
func TestRankCtxPreCancelled(t *testing.T) {
	_, a1 := startWorker(t)
	c, err := Dial([]string{a1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	startMsgs, _, _ := c.Stats()
	if _, err := rank(ctx, c, rankableWeb(), Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("a run on a cancelled context: err = %v, want context.Canceled", err)
	}
	if msgs, _, _ := c.Stats(); msgs != startMsgs {
		t.Errorf("pre-cancelled run still exchanged %d messages", msgs-startMsgs)
	}
	// The fleet was never touched: a follow-up run must succeed.
	if _, err := rank(context.Background(), c, rankableWeb(), Config{}); err != nil {
		t.Fatalf("Rank after a pre-cancelled run: %v", err)
	}
}

// TestRankCtxCancelAbortsInFlightCall is the acceptance bar for the
// distributed backend: a context cancelled while a worker exchange is
// blocked mid-run interrupts the socket wait immediately and the run
// returns ctx.Err() — it does not sit out the two-minute call timeout.
func TestRankCtxCancelAbortsInFlightCall(t *testing.T) {
	_, a1 := startWorker(t)
	aHang, release := startHangingWorker(t, wire.KindRankLocal)
	defer release()
	c, err := Dial([]string{a1, aHang})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = rank(ctx, c, rankableWeb(), Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("a run with a mid-run cancel: err = %v, want context.Canceled", err)
	}
	if err != ctx.Err() {
		t.Errorf("the run returned %v, want exactly ctx.Err() (%v)", err, ctx.Err())
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Errorf("cancellation took %v — the blocked exchange was not interrupted", waited)
	}
}

// TestRankCtxDeadlineAbortsInFlightCall covers deadline propagation:
// the context's deadline bounds the wire exchange (tighter than the
// default CallTimeout) and an expiry mid-exchange surfaces as
// context.DeadlineExceeded.
func TestRankCtxDeadlineAbortsInFlightCall(t *testing.T) {
	_, a1 := startWorker(t)
	aHang, release := startHangingWorker(t, wire.KindRankLocal)
	defer release()
	c, err := Dial([]string{a1, aHang})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = rank(ctx, c, rankableWeb(), Config{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a run past its deadline: err = %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Errorf("deadline abort took %v — the deadline did not propagate to the socket", waited)
	}
}
