package coordinator

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lmmrank/internal/dist/chaos"
	"lmmrank/internal/dist/wire"
	"lmmrank/internal/lmm"
)

// fastRedial is the rejoin-friendly policy the tests use: quick
// aggressive redials so a killed-then-surviving worker is back within a
// few power rounds.
func fastRedial(failures int) RetryPolicy {
	return RetryPolicy{
		MaxWorkerFailures: failures,
		MaxRedials:        200,
		RedialBase:        time.Millisecond,
		RedialMax:         5 * time.Millisecond,
	}
}

// rejoinFleet is the fleet of the rejoin tests, every worker behind a
// chaos proxy: the victim dies at its first power round, and once armed()
// the two survivors hold each power round after the first until the
// victim's redialed connection is re-admitted — which the victim's proxy
// sees as the first request on a later connection, the readmission probe —
// for at most 2 s. A run therefore cannot end before its rejoin however few
// rounds it needs: "mid-run" no longer depends on the run outlasting a
// 1–5 ms redial. Re-admission happens at a loop head, between rounds, so a
// round that is held while the redial has not landed yet is released the
// moment the victim's proxy accepts it: the next loop head re-admits. (The
// first armed round passes because it may be the one the victim dies in,
// whose loss — and the redialer — the coordinator handles only once the
// round returns.)
func rejoinFleet(t *testing.T, armed func() bool) (*Coordinator, *killer) {
	t.Helper()
	kt := killAt(wire.KindPowerRound)
	var readmitted atomic.Bool
	victim, a3 := proxiedWorker(t, func(n int, req *wire.Request) chaos.Decision {
		if n == 1 && kt.died() {
			readmitted.Store(true)
		}
		return kt.script(n, req)
	})
	hold := func() chaos.Script {
		var rounds atomic.Int64
		return func(_ int, req *wire.Request) chaos.Decision {
			if req.Kind != wire.KindPowerRound || !armed() || rounds.Add(1) == 1 {
				return chaos.Decision{Action: chaos.Pass}
			}
			landed := victim.Accepted() > 1
			for deadline := time.Now().Add(2 * time.Second); !readmitted.Load() && time.Now().Before(deadline); {
				if !landed && victim.Accepted() > 1 {
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
			return chaos.Decision{Action: chaos.Pass}
		}
	}
	_, a1 := proxiedWorker(t, hold())
	_, a2 := proxiedWorker(t, hold())
	c, err := Dial([]string{a1, a2, a3})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c, kt
}

// TestRejoinMidRunWarmReshipsNothing kills one worker's connection at
// its first SiteRank power round and lets the redial loop re-admit it
// mid-iteration. The worker process survives with its digest cache
// warm (it was loaded earlier in the same run), so the rebalance-back
// must negotiate every shard as a cache hit: RejoinShardBytes == 0.
// The final ranks must still match the single-node reference — a
// double-counted chain row (a site left in the interim owner's session)
// would blow the tolerance by orders of magnitude. The survivors hold
// their rounds after the death until it is re-admitted (rejoinFleet).
func TestRejoinMidRunWarmReshipsNothing(t *testing.T) {
	web := rankableWeb()
	ref, err := lmm.LayeredDocRank(web, lmm.WebConfig{})
	if err != nil {
		t.Fatalf("reference LayeredDocRank: %v", err)
	}
	c, kt := rejoinFleet(t, func() bool { return true })
	res, err := c.Rank(web, Config{
		SiteRank: SiteRankSync,
		Tol:      1e-13,
		MaxIter:  5000,
		Retry:    fastRedial(1),
	})
	if err != nil {
		t.Fatalf("Rank with a kill-then-rejoin worker: %v", err)
	}
	if !kt.died() {
		t.Fatal("scripted worker never reached its death trigger")
	}
	if d := res.DocRank.L1Diff(ref.DocRank); d >= 1e-9 {
		t.Errorf("‖rejoined − reference‖₁ = %g, want < 1e-9", d)
	}
	if res.Stats.WorkersLost != 1 {
		t.Errorf("WorkersLost = %d, want 1", res.Stats.WorkersLost)
	}
	if res.Stats.WorkersRejoined != 1 {
		t.Fatalf("WorkersRejoined = %d, want 1 (RedialAttempts = %d)",
			res.Stats.WorkersRejoined, res.Stats.RedialAttempts)
	}
	if res.Stats.RedialAttempts < 1 {
		t.Errorf("RedialAttempts = %d, want >= 1", res.Stats.RedialAttempts)
	}
	if res.Stats.RejoinShardBytes != 0 {
		t.Errorf("RejoinShardBytes = %d, want 0 (the rejoiner's cache was warm)",
			res.Stats.RejoinShardBytes)
	}
}

// TestRejoinFromPreviousRun kills a worker in run 1 (no redial — it
// stays lost) and gives run 2 a redial budget: a peer already broken
// when a run starts must get its redialer too, rejoin mid-run, and
// re-ship nothing (its cache is warm from run 1's load phase). In run 2
// the survivors hold their rounds until it is re-admitted.
func TestRejoinFromPreviousRun(t *testing.T) {
	web := rankableWeb()
	ref, err := lmm.LayeredDocRank(web, lmm.WebConfig{})
	if err != nil {
		t.Fatalf("reference LayeredDocRank: %v", err)
	}
	var run2 atomic.Bool
	c, kt := rejoinFleet(t, run2.Load)

	cfg := Config{
		SiteRank: SiteRankSync,
		Retry:    RetryPolicy{MaxWorkerFailures: 1},
	}
	if _, err := c.Rank(web, cfg); err != nil {
		t.Fatalf("run 1 (loss, no redial): %v", err)
	}
	if !kt.died() {
		t.Fatal("scripted worker never reached its death trigger")
	}

	cfg.Tol = 1e-13
	cfg.MaxIter = 5000
	cfg.Retry = fastRedial(1)
	run2.Store(true)
	res, err := c.Rank(web, cfg)
	if err != nil {
		t.Fatalf("run 2 (rejoin): %v", err)
	}
	if d := res.DocRank.L1Diff(ref.DocRank); d >= 1e-9 {
		t.Errorf("‖rejoined − reference‖₁ = %g, want < 1e-9", d)
	}
	if res.Stats.WorkersLost != 0 {
		t.Errorf("WorkersLost = %d, want 0 (the loss was last run's)", res.Stats.WorkersLost)
	}
	if res.Stats.WorkersRejoined != 1 {
		t.Fatalf("WorkersRejoined = %d, want 1 (RedialAttempts = %d)",
			res.Stats.WorkersRejoined, res.Stats.RedialAttempts)
	}
	if res.Stats.RejoinShardBytes != 0 {
		t.Errorf("RejoinShardBytes = %d, want 0 (warm from run 1)", res.Stats.RejoinShardBytes)
	}
}

// TestNoRedialWithoutPolicy pins the default: MaxRedials = 0 keeps the
// pre-redial contract — a lost worker stays lost for the whole run and
// nothing redials it in the background.
func TestNoRedialWithoutPolicy(t *testing.T) {
	web := rankableWeb()
	_, a1 := startWorker(t)
	_, a2 := startWorker(t)
	kt := killAt(wire.KindPowerRound)
	_, a3 := proxiedWorker(t, kt.script)
	c, err := Dial([]string{a1, a2, a3})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	res, err := c.Rank(web, Config{
		SiteRank: SiteRankSync,
		Tol:      1e-13,
		MaxIter:  5000,
		Retry:    RetryPolicy{MaxWorkerFailures: 1},
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

// TestRedialEndsWithItsRun: a redial still dialing when its run ends must
// not hold the run. The victim dies at its first local-rank exchange;
// the survivor holds the re-rank of the moved sites until the victim's
// redialer is inside its dial, whose hook then blocks until its context
// ends (or 5 s pass). A run that finishes, and one cancelled right
// there, must both return within a fraction of that hold — their own
// work is milliseconds — the cancelled one with exactly ctx.Err().
func TestRedialEndsWithItsRun(t *testing.T) {
	const hold = 5 * time.Second
	for _, tc := range []struct {
		name      string
		cancelled bool
	}{{"finished", false}, {"cancelled", true}} {
		t.Run(tc.name, func(t *testing.T) {
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
					if tc.cancelled {
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
			c.dial = func(ctx context.Context, _, _ string) (net.Conn, error) {
				once.Do(func() { close(dialing) })
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-time.After(hold):
					return nil, errors.New("dial hook held for its whole budget")
				}
			}

			start := time.Now()
			_, err = c.RankCtx(ctx, rankableWeb(), Config{Retry: RetryPolicy{
				MaxWorkerFailures: 1,
				MaxRedials:        1,
				RedialBase:        time.Millisecond,
			}})
			elapsed := time.Since(start)
			if !kt.died() {
				t.Fatal("scripted worker never reached its death trigger")
			}
			if tc.cancelled && err != ctx.Err() {
				t.Fatalf("cancelled run: err = %v, want exactly ctx.Err() (%v)", err, ctx.Err())
			}
			if !tc.cancelled && err != nil {
				t.Fatalf("Rank with a lost worker: %v", err)
			}
			if elapsed > hold/5 {
				t.Errorf("run returned after %v: it waited on its redial's dial", elapsed)
			}
		})
	}
}
