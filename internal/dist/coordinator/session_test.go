package coordinator

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"lmmrank/internal/dist/wire"
	"lmmrank/internal/lmm"
)

// TestRejectsLyingMissing: Response.Missing is a set of declared refs. A
// live peer that repeats a site in it, or names one it was never told
// about, is answering wrongly — the run fails at that Load with an error
// naming the worker, the Load is not sent again, and nothing is shipped
// twice. (Read for membership only, Missing [3, 3] passed: the run
// shipped shard 3 twice and reported one cache hit too few.)
func TestRejectsLyingMissing(t *testing.T) {
	web := rankableWeb()
	ns := web.NumSites()
	cases := []struct {
		name    string
		missing []int
	}{
		{"repeated", []int{3, 3}},
		{"undeclared", []int{ns}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// armed: the next Load is answered with the lie, the ones after
			// it honestly again; loads counts the Loads from the lie on.
			var armed atomic.Bool
			var loads atomic.Int64
			liar := lyingPeer(t, func(k wire.Kind, r *wire.Response) {
				if k != wire.KindLoad {
					return
				}
				if armed.CompareAndSwap(true, false) {
					r.Missing = tc.missing
					loads.Store(0)
				}
				loads.Add(1)
			})
			c, err := Dial([]string{liar})
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer c.Close()
			rk, err := lmm.NewRanker(web, lmm.RankerOptions{})
			if err != nil {
				t.Fatalf("NewRanker: %v", err)
			}
			cfg := Config{Retry: RetryPolicy{MaxWorkerFailures: 2}}
			if _, err := c.RankPreparedCtx(context.Background(), rk, cfg, Warm{}); err != nil {
				t.Fatalf("honest cold run: %v", err)
			}
			// Warm, so every site goes by ref and site 3 is a declared one.
			armed.Store(true)
			res, err := c.RankPreparedCtx(context.Background(), rk, cfg, Warm{})
			if err == nil {
				t.Fatalf("run accepted Missing %v: CacheHits %d, CacheMisses %d, ShardsReshipped %d",
					tc.missing, res.Stats.CacheHits, res.Stats.CacheMisses, res.Stats.ShardsReshipped)
			}
			if !strings.Contains(err.Error(), liar) {
				t.Errorf("err = %v, want it to name the worker %s", err, liar)
			}
			if n := loads.Load(); n != 1 {
				t.Errorf("the liar saw %d Loads, want 1: a live peer's wrong answer is not retried", n)
			}
		})
	}
}

// TestDoneSiteMovedIsNotReshipped pins what a loss in the local phase
// re-declares. The run is handed every local DocRank but one, owned by
// the victim, which dies when asked for it: all of the victim's sites
// move, but in the central and batched modes only the one still to be
// ranked is declared to its new owner — a finished site's shard is dead
// weight there — while the row-sharded mode needs every moved row.
func TestDoneSiteMovedIsNotReshipped(t *testing.T) {
	web := rankableWeb()
	ns := web.NumSites()
	ref, err := lmm.LayeredDocRank(web, lmm.WebConfig{})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	for _, cfg := range []Config{
		{},
		{SiteRank: SiteRankBatched, BatchRounds: 4},
		{SiteRank: SiteRankSync},
	} {
		t.Run(cfg.SiteRank.String(), func(t *testing.T) {
			c, kt := lossFleet(t, wire.KindRankLocal, 2)
			rk, err := lmm.NewRanker(web, lmm.RankerOptions{})
			if err != nil {
				t.Fatalf("NewRanker: %v", err)
			}
			cfg.Retry = RetryPolicy{MaxWorkerFailures: 1}
			cfg.Assignment = make([]int, ns)
			for s := range cfg.Assignment {
				cfg.Assignment[s] = s % 3
			}
			warm := Warm{Locals: slices.Clone(ref.LocalRanks)}
			const unranked = 2 // owned by the victim, fleet index 2
			warm.Locals[unranked] = nil
			res, err := c.RankPreparedCtx(context.Background(), rk, cfg, warm)
			if err != nil {
				t.Fatalf("Rank: %v", err)
			}
			if !kt.died() {
				t.Fatal("scripted worker never reached its death trigger")
			}
			checkRecovery(t, res, ref, true)
			moved := res.Stats.Reassignments
			if moved < 2 {
				t.Fatalf("Reassignments = %d, want the victim's %d sites", moved, ns/3)
			}
			want := ns + 1
			if cfg.SiteRank.rowSharded() {
				want = ns + moved
			}
			if got := res.Stats.ShardsReused + res.Stats.ShardsReshipped; got != want {
				t.Errorf("%d shards delivered (%d reused + %d in full), want %d: the %d first placed plus, of the %d moved, the ones still needed",
					got, res.Stats.ShardsReused, res.Stats.ShardsReshipped, want, ns, moved)
			}
		})
	}
}

// TestAsyncEpochsMoveForwardAcrossRuns: nothing rewinds a connection's
// asynchronous epoch any more, so runs on one coordinator number their
// accumulator generations upward from wherever the last one stopped —
// drained or, after a cancellation, not. A run that started from one
// again would have its sweeps refused as belonging to a drained epoch.
func TestAsyncEpochsMoveForwardAcrossRuns(t *testing.T) {
	web := rankableWeb()
	_, a1 := startWorker(t)
	_, a2 := startWorker(t)
	c, err := Dial([]string{a1, a2})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ordered := Config{SiteRank: SiteRankAsync, AsyncOrdered: true, AsyncSeed: 4, Tol: 1e-12, MaxIter: 4000}
	ref, err := c.Rank(web, Config{SiteRank: SiteRankSync, Tol: 1e-12, MaxIter: 4000})
	if err != nil {
		t.Fatalf("sync reference: %v", err)
	}
	check := func(what string, cfg Config, tol float64) {
		t.Helper()
		before := c.asyncEpoch
		res, err := c.Rank(web, cfg)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if d := res.SiteRank.L1Diff(ref.SiteRank); d >= tol {
			t.Errorf("%s: ‖async − sync‖₁ on SiteRank = %g, want < %g", what, d, tol)
		}
		if res.Stats.WorkersLost != 0 {
			t.Errorf("%s: %d workers lost, want the same two connections throughout", what, res.Stats.WorkersLost)
		}
		if c.asyncEpoch <= before {
			t.Errorf("%s: epoch counter went %d → %d, want it to advance", what, before, c.asyncEpoch)
		}
	}
	check("first run", ordered, 1e-9)
	check("second run, after a drained epoch", ordered, 1e-9)

	// An interrupted run leaves its epoch undrained on both workers.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := ordered
	interrupted.Checkpoint = &cancelAfter{Checkpoint: NewMemCheckpoint(), n: 2, cancel: cancel}
	if _, err := c.RankCtx(ctx, web, interrupted); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	check("run after an undrained epoch", ordered, 1e-9)
	check("concurrent schedule on the same connections", Config{SiteRank: SiteRankAsync, Tol: 1e-12, MaxIter: 4000}, 1e-6)
}
