package coordinator

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"lmmrank/internal/dist/worker"
	"lmmrank/internal/graph"
	"lmmrank/internal/matrix"
	"lmmrank/internal/webgen"
)

// deadAddr returns a loopback address that is guaranteed closed: we
// bind a port, note it, and release it.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func startWorker(t *testing.T) (*worker.Worker, string) {
	t.Helper()
	w := worker.New()
	addr, err := w.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("worker.Start: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	return w, addr
}

// TestDialDeadAddress asserts a dead worker address fails with an error
// promptly instead of hanging cluster bring-up.
func TestDialDeadAddress(t *testing.T) {
	start := time.Now()
	c, err := Dial([]string{deadAddr(t)})
	if err == nil {
		c.Close()
		t.Fatal("Dial of dead address succeeded")
	}
	if elapsed := time.Since(start); elapsed > DefaultDialTimeout+2*time.Second {
		t.Errorf("Dial took %v, expected to fail within the dial timeout", elapsed)
	}
}

// TestDialPartialFailure asserts that when one address of several is
// dead, Dial fails as a whole and does not leak the good connection.
func TestDialPartialFailure(t *testing.T) {
	_, good := startWorker(t)
	if _, err := Dial([]string{good, deadAddr(t)}); err == nil {
		t.Fatal("Dial with one dead address succeeded")
	}
}

func TestDialNoAddresses(t *testing.T) {
	if _, err := Dial(nil); err == nil {
		t.Fatal("Dial with no addresses succeeded")
	}
}

func rankableWeb() *graph.DocGraph {
	return webgen.Generate(webgen.Config{
		Seed:                5,
		Sites:               6,
		MeanSitePages:       6,
		DynamicClusterPages: 10,
		DocClusterPages:     10,
	}).Graph
}

// TestRankAfterWorkerClose asserts a mid-fleet worker shutdown turns
// into a clean error from Rank, not a hang or a panic.
func TestRankAfterWorkerClose(t *testing.T) {
	w, addr := startWorker(t)
	c, err := Dial([]string{addr})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("worker Close: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Rank(rankableWeb(), Config{})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Rank against a closed worker succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Rank against a closed worker hung")
	}
}

// TestRankAfterCoordinatorClose asserts using a closed coordinator is a
// clean error.
func TestRankAfterCoordinatorClose(t *testing.T) {
	_, addr := startWorker(t)
	c, err := Dial([]string{addr})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := c.Rank(rankableWeb(), Config{}); err == nil {
		t.Error("Rank on closed coordinator succeeded")
	}
	if err := c.Ping(); err == nil {
		t.Error("Ping on closed coordinator succeeded")
	}
}

// TestRankRejectsEmptyGraph covers input validation before any network
// traffic happens.
func TestRankRejectsEmptyGraph(t *testing.T) {
	_, addr := startWorker(t)
	c, err := Dial([]string{addr})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	empty := &graph.DocGraph{G: graph.NewDigraph(0)}
	if _, err := c.Rank(empty, Config{}); err == nil {
		t.Error("Rank of empty graph succeeded")
	}
	var nilErr error
	func() {
		defer func() {
			if r := recover(); r != nil {
				nilErr = errors.New("panicked")
			}
		}()
		_, nilErr = c.Rank(&graph.DocGraph{}, Config{})
	}()
	if nilErr == nil {
		t.Error("Rank of nil-digraph DocGraph succeeded")
	}
}

// TestStalledPeerTimesOut dials a listener that accepts and then goes
// silent — the partitioned-host case TCP never reports. The call
// deadline must surface an error instead of wedging forever.
func TestStalledPeerTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // accept, never respond
		}
	}()

	c, err := Dial([]string{ln.Addr().String()})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	c.CallTimeout = 200 * time.Millisecond

	done := make(chan error, 1)
	go func() { done <- c.Ping() }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Ping of a stalled peer succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Ping of a stalled peer hung despite CallTimeout")
	}

	// The timed-out exchange desynchronized the stream; the remote must
	// be poisoned so the next call fails immediately instead of pairing
	// with a stale late response.
	start := time.Now()
	if err := c.Ping(); err == nil {
		t.Error("Ping after a timeout succeeded on a broken connection")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("Ping on a broken remote took %v, want fail-fast", elapsed)
	}
}

// TestRankRejectsBadDamping asserts both SiteRank paths reject an
// out-of-range damping factor instead of silently producing NaNs.
func TestRankRejectsBadDamping(t *testing.T) {
	_, addr := startWorker(t)
	c, err := Dial([]string{addr})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	dg := rankableWeb()
	for _, mode := range []SiteRankMode{SiteRankCentral, SiteRankSync} {
		for _, f := range []float64{-0.5, 1.5} {
			if _, err := c.Rank(dg, Config{Damping: f, SiteRank: mode}); err == nil {
				t.Errorf("Rank with damping %g (mode=%v) succeeded", f, mode)
			}
		}
	}
}

func TestNumWorkersAndPing(t *testing.T) {
	_, a1 := startWorker(t)
	_, a2 := startWorker(t)
	c, err := Dial([]string{a1, a2})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if got := c.NumWorkers(); got != 2 {
		t.Errorf("NumWorkers = %d, want 2", got)
	}
	if err := c.Ping(); err != nil {
		t.Errorf("Ping: %v", err)
	}
	msgs, sent, recv := c.Stats()
	if msgs != 2 || sent == 0 || recv == 0 {
		t.Errorf("after Ping of 2 workers: messages=%d sent=%d recv=%d", msgs, sent, recv)
	}
}

// TestResultSurvivesLaterRuns guards the reuse rule on the coordinator:
// the per-round exchanges decode into each remote's retained Response,
// so whatever a Result keeps must have been copied out of it. A second
// run, personalized so every site-layer vector differs, must leave the
// first run's Result as it was — in every fleet mode.
func TestResultSurvivesLaterRuns(t *testing.T) {
	dg := rankableWeb()
	tele := matrix.NewVector(dg.NumSites())
	for s := range tele {
		tele[s] = float64(s + 1)
	}
	tele.Normalize()
	for _, cfg := range []Config{
		{SiteRank: SiteRankSync},
		{SiteRank: SiteRankAsync},
		{SiteRank: SiteRankAsync, AsyncOrdered: true, AsyncSeed: 3},
	} {
		_, a1 := startWorker(t)
		_, a2 := startWorker(t)
		c, err := Dial([]string{a1, a2})
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		first, err := c.Rank(dg, cfg)
		if err != nil {
			t.Fatalf("%v: first Rank: %v", cfg.SiteRank, err)
		}
		siteRank, docRank := first.SiteRank.Clone(), first.DocRank.Clone()
		locals := make([]matrix.Vector, len(first.LocalRanks))
		for i, v := range first.LocalRanks {
			locals[i] = v.Clone()
		}
		cfg.SitePersonalization = tele
		if _, err := c.Rank(dg, cfg); err != nil {
			t.Fatalf("%v: second Rank: %v", cfg.SiteRank, err)
		}
		if !reflect.DeepEqual(first.SiteRank, siteRank) || !reflect.DeepEqual(first.DocRank, docRank) ||
			!reflect.DeepEqual(first.LocalRanks, locals) {
			t.Errorf("%v: a later run rewrote an earlier Result", cfg.SiteRank)
		}
		c.Close()
	}
}
