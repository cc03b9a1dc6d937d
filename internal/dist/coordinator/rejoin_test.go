package coordinator

import (
	"testing"
	"time"

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

// TestRejoinMidRunWarmReshipsNothing kills one worker's connection at
// its first SiteRank power round and lets the redial loop re-admit it
// mid-iteration. The worker process survives with its digest cache
// warm (it was loaded earlier in the same run), so the rebalance-back
// must negotiate every shard as a cache hit: RejoinShardBytes == 0.
// The final ranks must still match the single-node reference — a
// double-counted chain row (a site left in the interim owner's session)
// would blow the tolerance by orders of magnitude.
func TestRejoinMidRunWarmReshipsNothing(t *testing.T) {
	web := rankableWeb()
	ref, err := lmm.LayeredDocRank(web, lmm.WebConfig{})
	if err != nil {
		t.Fatalf("reference LayeredDocRank: %v", err)
	}
	_, a1 := startWorker(t)
	_, a2 := startWorker(t)
	kt := killAt(wire.KindPowerRound)
	_, a3 := proxiedWorker(t, kt.script)
	c, err := Dial([]string{a1, a2, a3})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	// A tight tolerance keeps the power iteration running long enough
	// (hundreds of rounds) that the ~1 ms redial always lands mid-run.
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
// re-ship nothing (its cache is warm from run 1's load phase).
func TestRejoinFromPreviousRun(t *testing.T) {
	web := rankableWeb()
	ref, err := lmm.LayeredDocRank(web, lmm.WebConfig{})
	if err != nil {
		t.Fatalf("reference LayeredDocRank: %v", err)
	}
	_, a1 := startWorker(t)
	_, a2 := startWorker(t)
	kt := killAt(wire.KindPowerRound)
	_, a3 := proxiedWorker(t, kt.script)
	c, err := Dial([]string{a1, a2, a3})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

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
