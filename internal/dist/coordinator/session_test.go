package coordinator

import (
	"context"
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
				t.Fatalf("run accepted Missing %v: CacheHits %d, ShardsReshipped %d",
					tc.missing, res.Stats.CacheHits, res.Stats.ShardsReshipped)
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
// move, but only the one still to be ranked is declared to its new owner
// — a finished site's shard is dead weight.
func TestDoneSiteMovedIsNotReshipped(t *testing.T) {
	web := rankableWeb()
	ns := web.NumSites()
	ref, err := lmm.LayeredDocRank(web, lmm.WebConfig{})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	t.Run("central", func(t *testing.T) {
		c, kt := lossFleet(t, wire.KindRankLocal, 2)
		rk, err := lmm.NewRanker(web, lmm.RankerOptions{})
		if err != nil {
			t.Fatalf("NewRanker: %v", err)
		}
		cfg := Config{Retry: RetryPolicy{MaxWorkerFailures: 1}, Assignment: make([]int, ns)}
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
		checkRecovery(t, web, res, ref)
		moved := res.Stats.Reassignments
		if moved < 2 {
			t.Fatalf("Reassignments = %d, want the victim's %d sites", moved, ns/3)
		}
		want := ns + 1
		if got := res.Stats.CacheHits + res.Stats.ShardsReshipped; got != want {
			t.Errorf("%d shards delivered (%d reused + %d in full), want %d: the %d first placed plus, of the %d moved, the ones still needed",
				got, res.Stats.CacheHits, res.Stats.ShardsReshipped, want, ns, moved)
		}
	})
}
