package coordinator

import (
	"context"
	"errors"
	"math"
	"net"
	"reflect"
	"testing"
	"time"

	"lmmrank/internal/dist/worker"
	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
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
		_, err := rank(context.Background(), c, rankableWeb(), Config{})
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
	if _, err := rank(context.Background(), c, rankableWeb(), Config{}); err == nil {
		t.Error("Rank on closed coordinator succeeded")
	}
	if err := c.Ping(); err == nil {
		t.Error("Ping on closed coordinator succeeded")
	}
}

// TestRankRejectsEmptyGraph: an empty graph, or one with no digraph,
// never reaches the wire — no Ranker is built over it.
func TestRankRejectsEmptyGraph(t *testing.T) {
	_, addr := startWorker(t)
	c, err := Dial([]string{addr})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	empty := &graph.DocGraph{G: graph.NewDigraph(0)}
	if _, err := rank(context.Background(), c, empty, Config{}); err == nil {
		t.Error("Rank of empty graph succeeded")
	}
	var nilErr error
	func() {
		defer func() {
			if r := recover(); r != nil {
				nilErr = errors.New("panicked")
			}
		}()
		_, nilErr = rank(context.Background(), c, &graph.DocGraph{}, Config{})
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

// TestRankRejectsBadDamping asserts a run rejects an
// out-of-range or NaN damping factor, and a NaN or negative tolerance or
// iteration budget, with ErrBadConfig instead of silently producing NaNs
// or running every solve to its budget.
func TestRankRejectsBadDamping(t *testing.T) {
	_, addr := startWorker(t)
	c, err := Dial([]string{addr})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	dg := rankableWeb()
	for _, cfg := range []Config{
		{Damping: -0.5}, {Damping: 1.5}, {Damping: math.NaN()},
		{Tol: math.NaN()}, {Tol: -1}, {MaxIter: -1},
	} {
		if _, err := rank(context.Background(), c, dg, cfg); !errors.Is(err, pagerank.ErrBadConfig) {
			t.Errorf("Rank with damping %g, tol %g, budget %d: err = %v, want ErrBadConfig",
				cfg.Damping, cfg.Tol, cfg.MaxIter, err)
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
// the wire decodes into reusable frames, so whatever a Result keeps must
// be its own. A second run on the same Ranker, at another damping so
// every local DocRank differs, must leave the first run's Result as it
// was.
func TestResultSurvivesLaterRuns(t *testing.T) {
	dg := rankableWeb()
	_, a1 := startWorker(t)
	_, a2 := startWorker(t)
	c, err := Dial([]string{a1, a2})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	rk, err := lmm.NewRanker(dg, lmm.RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	first, err := c.RankPreparedCtx(context.Background(), rk, Config{}, Warm{})
	if err != nil {
		t.Fatalf("first Rank: %v", err)
	}
	locals := make([]matrix.Vector, len(first.LocalRanks))
	for i, v := range first.LocalRanks {
		locals[i] = v.Clone()
	}
	second, err := c.RankPreparedCtx(context.Background(), rk, Config{Damping: 0.5}, Warm{})
	if err != nil {
		t.Fatalf("second Rank: %v", err)
	}
	if reflect.DeepEqual(second.LocalRanks, locals) {
		t.Fatal("the second run answered the first's local ranks; the test pins nothing")
	}
	if !reflect.DeepEqual(first.LocalRanks, locals) {
		t.Error("a later run rewrote an earlier Result")
	}
}

// rank is one run over dg from nothing known, on a Ranker built for it
// as an engine builds one.
func rank(ctx context.Context, c *Coordinator, dg *graph.DocGraph, cfg Config) (*Result, error) {
	rk, err := lmm.NewRanker(dg, lmm.RankerOptions{})
	if err != nil {
		return nil, err
	}
	return c.RankPreparedCtx(ctx, rk, cfg, Warm{})
}

// docRank composes a run's local DocRanks under dg's πS at the defaults
// into its global DocRank, the answer a caller of the coordinator builds.
func docRank(dg *graph.DocGraph, res *Result) matrix.Vector {
	rk, err := lmm.NewRanker(dg, lmm.RankerOptions{})
	if err != nil {
		panic(err)
	}
	site, _, err := rk.RankSites(lmm.WebConfig{})
	if err != nil {
		panic(err)
	}
	return lmm.ComposeDocRank(dg, site, res.LocalRanks)
}
