package lmmrank

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// blockingDomainOf returns an identity DomainOf whose *first* call
// closes started and parks on release — a deterministic way to hold a
// ThreeLayer query mid-flight, since DomainOf runs inside the ranking
// phase after the query has pinned its snapshot.
func blockingDomainOf(started, release chan struct{}) func(string) string {
	var once sync.Once
	return func(name string) string {
		once.Do(func() {
			close(started)
			<-release
		})
		return name
	}
}

// identityDomainOf matches blockingDomainOf's grouping without the
// blocking, for reference answers.
func identityDomainOf(name string) string { return name }

// TestRankStragglerAcrossUpdate is the acceptance pin of snapshot
// serving: a Rank held mid-flight does not block Update, and after the
// swap it completes on the snapshot it started on — no error, no
// ErrGraphMutated, bitwise-equal to the same query run before the
// Update — while new queries already see the new graph. Runs under
// -race via make race.
func TestRankStragglerAcrossUpdate(t *testing.T) {
	web := churnTestWeb()
	ctx := context.Background()
	eng, err := NewLocalEngine(web.Graph, EngineOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	q := Query{ThreeLayer: true, Tol: 1e-11, DomainOf: identityDomainOf}
	ref, err := eng.Rank(ctx, q)
	if err != nil {
		t.Fatalf("reference Rank: %v", err)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	straggler := q
	straggler.DomainOf = blockingDomainOf(started, release)
	type answer struct {
		res *Result
		err error
	}
	got := make(chan answer, 1)
	go func() {
		res, err := eng.Rank(ctx, straggler)
		got <- answer{res, err}
	}()
	<-started // the straggler is mid-flight, holding its snapshot

	// Update must complete while the straggler is parked — under the old
	// drain-and-swap engine this deadlocked on the write lock.
	err = eng.Update(ctx, GraphDelta{
		ChangedSites: []SiteID{2},
		Apply: func(dg *DocGraph) error {
			editSite(t, dg, 2)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Update with a straggler in flight: %v", err)
	}

	// New queries serve the new graph before the straggler finishes.
	post, err := eng.Rank(ctx, q)
	if err != nil {
		t.Fatalf("post-update Rank: %v", err)
	}
	if d := post.DocRank.L1Diff(ref.DocRank); d == 0 {
		t.Error("post-update ranking identical to pre-update — the edit was lost")
	}

	close(release)
	a := <-got
	if a.err != nil {
		t.Fatalf("straggler Rank: %v", a.err)
	}
	if !reflect.DeepEqual(a.res, ref) {
		t.Error("straggler result differs from its snapshot's pre-update answer")
	}
}

// TestFlightGroupCoalesces pins single-flight semantics directly: with
// a leader parked inside fn, late arrivals wait on its flight (their
// own fn never runs) and every caller gets an equal but unaliased copy.
func TestFlightGroupCoalesces(t *testing.T) {
	fg := newFlightGroup()
	ctx := context.Background()
	started := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int32
	want := Vector{0.25, 0.75}

	type answer struct {
		res *Result
		err error
	}
	leaderGot := make(chan answer, 1)
	go func() {
		res, err := fg.do(ctx, "k", func() (*Result, error) {
			calls.Add(1)
			close(started)
			<-release
			return &Result{DocRank: want.Clone()}, nil
		})
		leaderGot <- answer{res, err}
	}()
	<-started // the flight is registered: do registers before running fn

	const waiters = 4
	waiterGot := make(chan answer, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			res, err := fg.do(ctx, "k", func() (*Result, error) {
				calls.Add(1)
				return nil, errors.New("waiter fn ran")
			})
			waiterGot <- answer{res, err}
		}()
	}
	fg.mu.Lock()
	f := fg.m["k"]
	fg.mu.Unlock()
	if f == nil {
		t.Fatal("no open flight for the key")
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.waiters.Load() < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters joined the flight", f.waiters.Load(), waiters)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)

	results := make([]*Result, 0, waiters+1)
	for i := 0; i < waiters+1; i++ {
		var a answer
		select {
		case a = <-leaderGot:
		case a = <-waiterGot:
		}
		if a.err != nil {
			t.Fatalf("coalesced call: %v", a.err)
		}
		results = append(results, a.res)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1", n)
	}
	for i, r := range results {
		if !reflect.DeepEqual(r.DocRank, want) {
			t.Errorf("result %d = %v, want %v", i, r.DocRank, want)
		}
		for j := 0; j < i; j++ {
			if &r.DocRank[0] == &results[j].DocRank[0] {
				t.Errorf("results %d and %d alias the same vector", i, j)
			}
		}
	}
}

// TestFlightGroupLeaderCancelRetry: a leader failing with *its* context
// abort must not fail the coalesced callers — a live waiter retries as
// the fresh leader and computes its own answer.
func TestFlightGroupLeaderCancelRetry(t *testing.T) {
	fg := newFlightGroup()
	started := make(chan struct{})
	release := make(chan struct{})
	leaderGot := make(chan error, 1)
	go func() {
		_, err := fg.do(context.Background(), "k", func() (*Result, error) {
			close(started)
			<-release
			return nil, fmt.Errorf("solver aborted: %w", context.Canceled)
		})
		leaderGot <- err
	}()
	<-started
	fg.mu.Lock()
	f := fg.m["k"]
	fg.mu.Unlock()

	var waiterFnRan atomic.Bool
	want := Vector{1}
	type answer struct {
		res *Result
		err error
	}
	waiterGot := make(chan answer, 1)
	go func() {
		res, err := fg.do(context.Background(), "k", func() (*Result, error) {
			waiterFnRan.Store(true)
			return &Result{DocRank: want.Clone()}, nil
		})
		waiterGot <- answer{res, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for f.waiters.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined the flight")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)

	if err := <-leaderGot; !errors.Is(err, context.Canceled) {
		t.Errorf("leader err = %v, want its own context.Canceled", err)
	}
	a := <-waiterGot
	if a.err != nil {
		t.Fatalf("retrying waiter: %v", a.err)
	}
	if !waiterFnRan.Load() {
		t.Error("waiter never re-ran as leader")
	}
	if !reflect.DeepEqual(a.res.DocRank, want) {
		t.Errorf("waiter result = %v, want %v", a.res.DocRank, want)
	}
}

// TestFlightGroupWaiterCtx: a waiter whose own context aborts stops
// waiting immediately with ctx.Err(), leaving the leader undisturbed.
func TestFlightGroupWaiterCtx(t *testing.T) {
	fg := newFlightGroup()
	started := make(chan struct{})
	release := make(chan struct{})
	leaderGot := make(chan error, 1)
	go func() {
		_, err := fg.do(context.Background(), "k", func() (*Result, error) {
			close(started)
			<-release
			return &Result{DocRank: Vector{1}}, nil
		})
		leaderGot <- err
	}()
	<-started

	wctx, cancel := context.WithCancel(context.Background())
	waiterGot := make(chan error, 1)
	go func() {
		_, err := fg.do(wctx, "k", func() (*Result, error) {
			return nil, errors.New("waiter fn ran")
		})
		waiterGot <- err
	}()
	fg.mu.Lock()
	f := fg.m["k"]
	fg.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for f.waiters.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined the flight")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if err := <-waiterGot; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter err = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-leaderGot; err != nil {
		t.Errorf("leader err = %v after a waiter bailed", err)
	}
}

// TestEngineCoalesceConsultsFlights proves Rank actually routes through
// the snapshot's flight group: a result planted under the query's
// fingerprint is what Rank returns — as a private copy.
func TestEngineCoalesceConsultsFlights(t *testing.T) {
	web := churnTestWeb()
	ctx := context.Background()
	eng, err := NewLocalEngine(web.Graph, EngineOptions{Coalesce: true})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	q := Query{Tol: 1e-6}
	key, ok := q.fingerprint(0)
	if !ok {
		t.Fatal("plain query not coalesceable")
	}
	sentinel := &Result{DocRank: Vector{0.25, 0.75}, SiteIterations: 41}
	f := &flight{done: make(chan struct{}), res: sentinel}
	close(f.done)
	fg := eng.snap.Load().flights
	fg.mu.Lock()
	fg.m[key] = f
	fg.mu.Unlock()
	defer func() {
		fg.mu.Lock()
		delete(fg.m, key)
		fg.mu.Unlock()
	}()

	res, err := eng.Rank(ctx, q)
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	if !reflect.DeepEqual(res, sentinel) {
		t.Errorf("Rank bypassed the planted flight: got %+v", res)
	}
	if &res.DocRank[0] == &sentinel.DocRank[0] {
		t.Error("Rank returned the flight's result without copying")
	}

	// A query with a custom DomainOf must NOT consult the group (its
	// fingerprint is undefined) — it computes for real.
	if _, ok := (Query{DomainOf: identityDomainOf}).fingerprint(0); ok {
		t.Error("DomainOf query reported a fingerprint")
	}
}

// TestEngineAdmissionCap covers both admission modes with a query
// deterministically parked inside the engine.
func TestEngineAdmissionCap(t *testing.T) {
	web := churnTestWeb()
	ctx := context.Background()

	t.Run("reject", func(t *testing.T) {
		eng, err := NewLocalEngine(web.Graph, EngineOptions{MaxInFlight: 1, RejectOverload: true})
		if err != nil {
			t.Fatalf("NewLocalEngine: %v", err)
		}
		started := make(chan struct{})
		release := make(chan struct{})
		holderGot := make(chan error, 1)
		go func() {
			_, err := eng.Rank(ctx, Query{ThreeLayer: true, DomainOf: blockingDomainOf(started, release)})
			holderGot <- err
		}()
		<-started // the only slot is held
		if _, err := eng.Rank(ctx, Query{}); !errors.Is(err, ErrOverloaded) {
			t.Errorf("over-cap Rank err = %v, want ErrOverloaded", err)
		}
		close(release)
		if err := <-holderGot; err != nil {
			t.Fatalf("holder Rank: %v", err)
		}
		if _, err := eng.Rank(ctx, Query{}); err != nil {
			t.Errorf("Rank after the slot freed: %v", err)
		}
	})

	t.Run("queue", func(t *testing.T) {
		eng, err := NewLocalEngine(web.Graph, EngineOptions{MaxInFlight: 1})
		if err != nil {
			t.Fatalf("NewLocalEngine: %v", err)
		}
		started := make(chan struct{})
		release := make(chan struct{})
		holderGot := make(chan error, 1)
		go func() {
			_, err := eng.Rank(ctx, Query{ThreeLayer: true, DomainOf: blockingDomainOf(started, release)})
			holderGot <- err
		}()
		<-started
		// A queued caller honors its context while waiting for a slot.
		qctx, cancel := context.WithCancel(ctx)
		queuedGot := make(chan error, 1)
		go func() {
			_, err := eng.Rank(qctx, Query{})
			queuedGot <- err
		}()
		cancel()
		if err := <-queuedGot; !errors.Is(err, context.Canceled) {
			t.Errorf("queued Rank err = %v, want context.Canceled", err)
		}
		close(release)
		if err := <-holderGot; err != nil {
			t.Fatalf("holder Rank: %v", err)
		}
		if _, err := eng.Rank(ctx, Query{}); err != nil {
			t.Errorf("Rank after the slot freed: %v", err)
		}
	})
}

// TestNormalizeCtxErr pins the masking fix: a query's own failure
// survives an expired context; only genuine context aborts are mapped
// to the caller's ctx.Err().
func TestNormalizeCtxErr(t *testing.T) {
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	live := context.Background()

	if got := normalizeCtxErr(expired, ErrGraphMutated); !errors.Is(got, ErrGraphMutated) {
		t.Errorf("real fault under expired ctx = %v, want ErrGraphMutated", got)
	}
	wrapped := fmt.Errorf("power run: %w", context.Canceled)
	if got := normalizeCtxErr(expired, wrapped); got != context.Canceled {
		t.Errorf("wrapped abort under expired ctx = %v, want the ctx's own Canceled", got)
	}
	if got := normalizeCtxErr(live, wrapped); got != wrapped {
		t.Errorf("wrapped abort under live ctx = %v, want it passed through", got)
	}
	if got := normalizeCtxErr(live, nil); got != nil {
		t.Errorf("nil err = %v, want nil", got)
	}
}

// TestThreeLayerWarmMatchesCold pins the seed-scoping fix: after an
// Update, a three-layer query must agree with a cold engine to < 1e-9.
// The identity DomainOf makes the domain count equal the site count —
// exactly the shape where a leaked two-layer site seed would slip past
// the solver's shape check and start the domain layer from the wrong
// distribution.
func TestThreeLayerWarmMatchesCold(t *testing.T) {
	web := churnTestWeb()
	ctx := context.Background()
	eng, err := NewLocalEngine(web.Graph, EngineOptions{})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	q := Query{ThreeLayer: true, Tol: 1e-11, DomainOf: identityDomainOf}
	if _, err := eng.Rank(ctx, q); err != nil {
		t.Fatalf("pre-churn Rank: %v", err)
	}
	err = eng.Update(ctx, GraphDelta{
		ChangedSites: []SiteID{4},
		Apply: func(dg *DocGraph) error {
			editSite(t, dg, 4)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	warm, err := eng.Rank(ctx, q)
	if err != nil {
		t.Fatalf("warm three-layer Rank: %v", err)
	}
	coldEng, err := NewLocalEngine(eng.DocGraph(), EngineOptions{})
	if err != nil {
		t.Fatalf("cold NewLocalEngine: %v", err)
	}
	cold, err := coldEng.Rank(ctx, q)
	if err != nil {
		t.Fatalf("cold three-layer Rank: %v", err)
	}
	if d := warm.DocRank.L1Diff(cold.DocRank); d >= 1e-9 {
		t.Errorf("‖warm − cold‖₁ three-layer DocRank = %g, want < 1e-9", d)
	}
	if d := warm.DomainRank.L1Diff(cold.DomainRank); d >= 1e-9 {
		t.Errorf("‖warm − cold‖₁ DomainRank = %g, want < 1e-9", d)
	}
}

// TestDistEngineFailedApplyNoReship: what is distributed about a failed
// Apply being a no-op — nothing of the half-applied edit reaches the
// wire. A follow-up empty Update rebuilds nothing and the next query
// reuses every shard. (That the ranking is unmoved is
// TestEngineUpdateApplyError, on both engines.)
func TestDistEngineFailedApplyNoReship(t *testing.T) {
	web := churnTestWeb()
	dg := web.Graph
	ns := dg.NumSites()
	ctx := context.Background()

	cl, err := StartCluster(2)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()
	eng, err := NewDistEngine(cl, dg, DistConfig{})
	if err != nil {
		t.Fatalf("NewDistEngine: %v", err)
	}
	if _, err := eng.Rank(ctx, Query{}); err != nil {
		t.Fatalf("cold Rank: %v", err)
	}

	boom := errors.New("boom")
	err = eng.Update(ctx, GraphDelta{
		ChangedSites: []SiteID{2},
		Apply: func(dg *DocGraph) error {
			editSite(t, dg, 2) // mutates the clone, then fails
			return boom
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failing Update: err = %v, want boom", err)
	}

	// Under the old merge-before-Apply engine, site 2 was already marked
	// dirty (and the serving graph mutated), so this shipped the
	// half-applied edit.
	if err := eng.Update(ctx, GraphDelta{}); err != nil {
		t.Fatalf("empty Update: %v", err)
	}
	warm, err := eng.Rank(ctx, Query{})
	if err != nil {
		t.Fatalf("post-update Rank: %v", err)
	}
	if warm.Dist.ShardsReshipped != 0 || warm.Dist.CacheHits != ns {
		t.Errorf("reshipped %d / reused %d shards, want 0 / %d",
			warm.Dist.ShardsReshipped, warm.Dist.CacheHits, ns)
	}
}

// TestCoalescedLeaderHandsOffItsResult pins the cost of a coalescible
// query nobody joined: the leader returns the result it computed, not a
// copy of it, so an index-served Rank allocates one DocRank (8 bytes a
// document) and small change — it was two DocRanks while the leader
// always cloned.
func TestCoalescedLeaderHandsOffItsResult(t *testing.T) {
	web := GenerateCampusWeb(CampusWebConfig{Seed: 7, Sites: 40, MeanSitePages: 1200,
		DynamicClusterPages: 50, DocClusterPages: 50})
	eng, err := NewLocalEngine(web.Graph, EngineOptions{Coalesce: true, CoalesceTol: 1e-6, TopKIndex: true})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	ctx := context.Background()
	q := Query{TopK: 10}
	rank := func() *Result {
		res, err := eng.Rank(ctx, q)
		if err != nil {
			t.Fatalf("Rank: %v", err)
		}
		return res
	}
	first := rank()
	const runs = 20
	served := eng.ServingStats().TopKIndexServes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		rank()
	}
	runtime.ReadMemStats(&after)
	if got := eng.ServingStats().TopKIndexServes - served; got != runs {
		t.Fatalf("%d of %d queries were index-served", got, runs)
	}
	perRank := float64(after.TotalAlloc-before.TotalAlloc) / runs
	docRank := float64(8 * web.Graph.NumDocs())
	t.Logf("%.0f bytes per Rank, %.3f x one DocRank", perRank, perRank/docRank)
	if perRank >= 1.1*docRank {
		t.Errorf("an index-served coalescible Rank allocates %.0f bytes, want < 1.1 x the %.0f of one DocRank", perRank, docRank)
	}
	// Handing off must not turn into sharing: successive answers are
	// equal and do not alias.
	second := rank()
	if !reflect.DeepEqual(first.DocRank, second.DocRank) || &first.DocRank[0] == &second.DocRank[0] {
		t.Error("successive answers differ or alias one vector")
	}
}
