package lmmrank

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// churnSites returns sites of the graph big enough for editSite, the
// rotating mutation targets of the churn stress tests.
func churnSites(t *testing.T, dg *DocGraph, n int) []SiteID {
	t.Helper()
	var sites []SiteID
	for s := range dg.Sites {
		if len(dg.Sites[s].Docs) >= 3 {
			sites = append(sites, SiteID(s))
			if len(sites) == n {
				return sites
			}
		}
	}
	t.Fatalf("only %d of %d editable sites in the test web", len(sites), n)
	return nil
}

// checkServedRanks sanity-checks a concurrently served result: the
// graph under the engine is mutating, so there is no fixed reference,
// but every answer must still be a probability distribution.
func checkServedRanks(t *testing.T, res *Result) {
	t.Helper()
	if res == nil || len(res.DocRank) == 0 {
		t.Error("served an empty result")
		return
	}
	sum := 0.0
	for _, x := range res.DocRank {
		if math.IsNaN(x) || x < 0 {
			t.Errorf("served rank %g", x)
			return
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("served ranks sum to %g, want 1", sum)
	}
}

// TestServingAdmissionUnderChurn hammers a capped, coalescing engine
// from many goroutines while Update keeps swapping snapshots
// underneath, and demands exact admission accounting: every call either
// succeeds or is rejected with ErrOverloaded — no other error, no lost
// call — and every success is a well-formed distribution off whichever
// snapshot admitted it. Runs under -race via make race.
func TestServingAdmissionUnderChurn(t *testing.T) {
	web := churnTestWeb()
	ctx := context.Background()
	eng, err := NewLocalEngine(web.Graph, EngineOptions{
		MaxInFlight:    1,
		RejectOverload: true,
		Coalesce:       true,
	})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	sites := churnSites(t, web.Graph, 5)

	const rankers = 8
	const perRanker = 40
	var successes, overloads atomic.Int64

	// Deterministic rejection coverage before the storm: park a
	// non-coalesceable query on the engine's only slot, probe that the
	// gate rejects while it holds, release, and confirm the holder
	// itself served cleanly.
	started := make(chan struct{})
	releaseHold := make(chan struct{})
	holderGot := make(chan error, 1)
	go func() {
		_, err := eng.Rank(ctx, Query{ThreeLayer: true, DomainOf: blockingDomainOf(started, releaseHold)})
		holderGot <- err
	}()
	<-started
	if _, err := eng.Rank(ctx, Query{}); !errors.Is(err, ErrOverloaded) {
		t.Errorf("Rank with the only slot held = %v, want ErrOverloaded", err)
	}
	close(releaseHold)
	if err := <-holderGot; err != nil {
		t.Fatalf("slot-holding Rank: %v", err)
	}

	// The storm: each ranker needs perRanker *served* queries and spins
	// through rejections to get them — so the books must balance exactly
	// (every attempt either served or was rejected; anything else fails
	// the test) and the gate must keep making progress under Update swaps.
	var wg sync.WaitGroup
	for g := 0; g < rankers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tols := []float64{1e-8, 1e-9, 1e-10}
			for i := 0; i < perRanker; {
				res, err := eng.Rank(ctx, Query{Tol: tols[(g+i)%len(tols)]})
				switch {
				case err == nil:
					successes.Add(1)
					checkServedRanks(t, res)
					i++
				case errors.Is(err, ErrOverloaded):
					overloads.Add(1)
					runtime.Gosched()
				default:
					t.Errorf("ranker %d call %d: %v", g, i, err)
					i++
				}
			}
		}(g)
	}

	updaterGot := make(chan error, 1)
	go func() {
		for i := 0; i < 10; i++ {
			s := sites[i%len(sites)]
			err := eng.Update(ctx, GraphDelta{
				Apply: func(dg *DocGraph) error {
					docs := dg.Sites[s].Docs
					dg.G.AddLink(int(docs[0]), int(docs[2]))
					dg.G.AddLink(int(docs[2]), int(docs[1]))
					return nil
				},
			})
			if err != nil {
				updaterGot <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
		updaterGot <- nil
	}()

	wg.Wait()
	if err := <-updaterGot; err != nil {
		t.Fatalf("Update during the stress: %v", err)
	}
	s, o := successes.Load(), overloads.Load()
	if s != rankers*perRanker {
		t.Errorf("served %d queries, want %d — calls leaked past the accounting", s, rankers*perRanker)
	}
	t.Logf("churn admission: %d served, %d rejected along the way", s, o)

	// The engine is healthy after the storm: an uncontended call serves.
	if _, err := eng.Rank(ctx, Query{}); err != nil {
		t.Errorf("Rank after the stress: %v", err)
	}
}

// TestCoalesceLeaderAbortUnderChurn stresses the leader-handoff path at
// the Engine level: coalesced waiters share a leader whose context is
// cancelled mid-flight, while Update swaps snapshots between rounds. A
// waiter with a live context must never inherit the leader's abort — it
// re-elects itself and computes. Runs under -race via make race.
func TestCoalesceLeaderAbortUnderChurn(t *testing.T) {
	web := churnTestWeb()
	ctx := context.Background()
	eng, err := NewLocalEngine(web.Graph, EngineOptions{Coalesce: true})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	sites := churnSites(t, web.Graph, 3)

	const rounds = 25
	for round := 0; round < rounds; round++ {
		q := Query{Tol: 1e-10}
		lctx, cancel := context.WithCancel(ctx)
		leaderGot := make(chan error, 1)
		go func() {
			_, err := eng.Rank(lctx, q)
			leaderGot <- err
		}()
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := eng.Rank(ctx, q)
				if err != nil {
					t.Errorf("round %d: waiter inherited an abort: %v", round, err)
					return
				}
				checkServedRanks(t, res)
			}()
		}
		cancel() // race the leader's computation on purpose
		if err := <-leaderGot; err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("round %d: leader err = %v, want nil or context.Canceled", round, err)
		}
		wg.Wait()
		if round%5 == 4 {
			s := sites[(round/5)%len(sites)]
			err := eng.Update(ctx, GraphDelta{
				Apply: func(dg *DocGraph) error {
					docs := dg.Sites[s].Docs
					dg.G.AddLink(int(docs[0]), int(docs[2]))
					return nil
				},
			})
			if err != nil {
				t.Fatalf("round %d: Update: %v", round, err)
			}
		}
	}
}
