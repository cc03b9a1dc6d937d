package cluster

import (
	"context"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"lmmrank/internal/dist/chaos"
	"lmmrank/internal/dist/coordinator"
	"lmmrank/internal/dist/wire"
	"lmmrank/internal/lmm"
)

// TestWarmRunAsksOnlyForMissingLocals pins coordinator.Warm: a run
// handed the previous answer's local DocRanks sends no KindRankLocal,
// reuses the vectors themselves and lands within 1e-9 of the cold
// answer; with holes in Locals the fleet is asked for exactly the holes.
func TestWarmRunAsksOnlyForMissingLocals(t *testing.T) {
	web := testWeb()
	ns := web.Graph.NumSites()
	ctx := context.Background()
	for _, leg := range modeLegs {
		cfg := leg.cfg
		t.Run(leg.name, func(t *testing.T) {
			cl, err := StartChaosLocal(3)
			if err != nil {
				t.Fatalf("StartChaosLocal: %v", err)
			}
			defer cl.Close()
			script, asked := chaos.RecordSites(wire.KindRankLocal)
			for _, p := range cl.Proxies {
				p.SetScript(script)
			}
			const tol = 1e-9
			rk, err := lmm.NewRanker(web.Graph, lmm.RankerOptions{})
			if err != nil {
				t.Fatalf("NewRanker: %v", err)
			}

			cold, err := cl.Coord.RankPreparedCtx(context.Background(), rk, cfg, coordinator.Warm{})
			if err != nil {
				t.Fatalf("cold run: %v", err)
			}
			if got := asked(); len(got) != ns || cold.Stats.LocalRanksReused != 0 {
				t.Fatalf("cold run asked for %d sites and reused %d, want %d and 0", len(got), cold.Stats.LocalRanksReused, ns)
			}

			known := coordinator.Warm{Locals: cold.LocalRanks, Digests: cold.Digests}
			warm, err := cl.Coord.RankPreparedCtx(ctx, rk, cfg, known)
			if err != nil {
				t.Fatalf("warm run: %v", err)
			}
			if got := asked(); len(got) != 0 {
				t.Errorf("warm run asked the fleet for sites %v, want no KindRankLocal at all", got)
			}
			if st := warm.Stats; st.LocalRanksReused != ns || st.LocalRankDuration != 0 {
				t.Errorf("warm run reused %d of %d local ranks in a %v local phase, want all and 0", st.LocalRanksReused, ns, st.LocalRankDuration)
			}
			for s, v := range warm.LocalRanks {
				if len(v) > 0 && &v[0] != &known.Locals[s][0] {
					t.Fatalf("site %d: the warm run's local rank is a copy, want the vector it was handed", s)
				}
				if warm.LocalIterations[s] != 0 {
					t.Errorf("site %d: %d local iterations reported for a reused vector, want 0", s, warm.LocalIterations[s])
				}
			}
			if d := docRank(web.Graph, warm).L1Diff(docRank(web.Graph, cold)); d >= tol {
				t.Errorf("‖warm − cold‖₁ = %g, want < %g", d, tol)
			}

			// Holes: an unknown site, and a vector of the wrong size (a
			// site whose roster changed) — both are asked for, nothing
			// else is.
			holes := coordinator.Warm{Locals: slices.Clone(cold.LocalRanks)}
			holes.Locals[3] = nil
			holes.Locals[7] = holes.Locals[7][:len(holes.Locals[7])-1]
			part, err := cl.Coord.RankPreparedCtx(ctx, rk, cfg, holes)
			if err != nil {
				t.Fatalf("partly warm run: %v", err)
			}
			if got := asked(); !slices.Equal(got, []int{3, 7}) {
				t.Errorf("partly warm run asked for sites %v, want [3 7]", got)
			}
			if part.Stats.LocalRanksReused != ns-2 || part.Stats.LocalRankDuration == 0 {
				t.Errorf("partly warm run reused %d local ranks in %v, want %d and a timed phase", part.Stats.LocalRanksReused, part.Stats.LocalRankDuration, ns-2)
			}
			if d := docRank(web.Graph, part).L1Diff(docRank(web.Graph, cold)); d >= tol {
				t.Errorf("‖partly warm − cold‖₁ = %g, want < %g", d, tol)
			}
		})
	}
}

// TestMessagesPerRun counts a run's exchanges exactly. A worker's
// session is declared, not negotiated: one KindLoad by digest when the
// worker holds everything, a second carrying what it reported missing
// when it does not — so a warm run is one Load per worker, and a cold run
// pays each worker two Loads and one KindRankLocal. The site layer is
// solved on the coordinator and costs no exchange.
func TestMessagesPerRun(t *testing.T) {
	web := testWeb()
	const nw = 3
	for _, leg := range modeLegs {
		cfg := leg.cfg
		t.Run(leg.name, func(t *testing.T) {
			cl, err := StartLocal(nw)
			if err != nil {
				t.Fatalf("StartLocal: %v", err)
			}
			defer cl.Close()
			rk, err := lmm.NewRanker(web.Graph, lmm.RankerOptions{})
			if err != nil {
				t.Fatalf("NewRanker: %v", err)
			}
			cold, err := cl.Coord.RankPreparedCtx(context.Background(), rk, cfg, coordinator.Warm{})
			if err != nil {
				t.Fatalf("cold run: %v", err)
			}
			if got, want := cold.Stats.Messages, uint64(2*nw+nw); got != want {
				t.Errorf("cold run: %d messages, want %d (two Loads and a KindRankLocal per worker)", got, want)
			}
			known := coordinator.Warm{Locals: cold.LocalRanks, Digests: cold.Digests}
			warm, err := cl.Coord.RankPreparedCtx(context.Background(), rk, cfg, known)
			if err != nil {
				t.Fatalf("warm run: %v", err)
			}
			if got, want := warm.Stats.Messages, uint64(nw); got != want {
				t.Errorf("warm run: %d messages, want %d (one Load per worker)", got, want)
			}
			if warm.Stats.CacheHits != web.Graph.NumSites() || warm.Stats.ShardsReshipped != 0 {
				t.Errorf("warm run: %d hits / %d re-shipped, want %d / 0", warm.Stats.CacheHits, warm.Stats.ShardsReshipped, web.Graph.NumSites())
			}
		})
	}
}

// TestChaosMalformedLocalRankIsRefused: a caller may retain a run's
// local DocRanks, so one that is not a distribution over its site's
// documents must fail the run — naming the worker, and without the
// retry budget treating a live peer's answer as a loss.
func TestChaosMalformedLocalRankIsRefused(t *testing.T) {
	web := testWeb()
	cases := []struct {
		name    string
		rewrite func(scores []float64) []float64
	}{
		{"NaN", func(v []float64) []float64 { v[0] = math.NaN(); return v }},
		{"infinite", func(v []float64) []float64 { v[0] = math.Inf(1); return v }},
		{"negative", func(v []float64) []float64 { v[0], v[1] = v[0]+v[1]+0.5, -0.5; return v }},
		{"notStochastic", func(v []float64) []float64 { v[0] += 1e-3; return v }},
		{"short", func(v []float64) []float64 { return v[:len(v)-1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := StartChaosLocal(3)
			if err != nil {
				t.Fatalf("StartChaosLocal: %v", err)
			}
			defer cl.Close()
			var mu sync.Mutex
			asks := 0
			cl.Proxies[1].SetScript(func(_ int, req *wire.Request) chaos.Decision {
				if req.Kind != wire.KindRankLocal {
					return chaos.Decision{Action: chaos.Pass}
				}
				mu.Lock()
				asks++
				mu.Unlock()
				return chaos.Decision{Rewrite: func(resp *wire.Response) {
					lr := &resp.Local[len(resp.Local)-1]
					lr.Scores = tc.rewrite(lr.Scores)
				}}
			})
			res, err := rank(context.Background(), cl, web.Graph, coordinator.Config{
				Retry: coordinator.RetryPolicy{MaxWorkerFailures: 2},
			})
			if err == nil {
				t.Fatalf("run accepted a %s local rank (Stats %+v)", tc.name, res.Stats)
			}
			if !strings.Contains(err.Error(), cl.Addrs[1]) {
				t.Errorf("error %q does not name the worker %s", err, cl.Addrs[1])
			}
			if asks != 1 {
				t.Errorf("the worker was asked %d times, want 1: a malformed answer is not a loss to retry", asks)
			}
			if err := cl.Coord.Ping(); err != nil {
				t.Errorf("the fleet did not survive the refusal: %v", err)
			}
		})
	}
}
