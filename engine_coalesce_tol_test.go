package lmmrank

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestFingerprintQuantization is the unit pin of similarity keys:
// at tol > 0, vectors within the grid share a key, far vectors do not,
// proportional vectors always do (the key normalizes), and Tenant
// never enters the key; at tol = 0 only bit-identical vectors collide —
// today's behavior, unchanged.
func TestFingerprintQuantization(t *testing.T) {
	base := Vector{0.5, 0.25, 0.25}
	key := func(t *testing.T, q Query, tol float64) string {
		t.Helper()
		k, ok := q.fingerprint(tol)
		if !ok {
			t.Fatal("query not coalesceable")
		}
		return k
	}

	t.Run("nearSharesKey", func(t *testing.T) {
		near := base.Clone()
		near[0] += 1e-9 // far inside a 0.01/3 grid cell
		if key(t, Query{SitePersonalization: base}, 0.01) != key(t, Query{SitePersonalization: near}, 0.01) {
			t.Error("near-identical vectors got distinct keys at tol=0.01")
		}
	})
	t.Run("farDistinctKey", func(t *testing.T) {
		far := Vector{0.25, 0.5, 0.25}
		if key(t, Query{SitePersonalization: base}, 0.01) == key(t, Query{SitePersonalization: far}, 0.01) {
			t.Error("distant vectors collided at tol=0.01")
		}
	})
	t.Run("proportionalSharesKey", func(t *testing.T) {
		double := base.Clone()
		for i := range double {
			double[i] *= 2
		}
		if key(t, Query{SitePersonalization: base}, 0.01) != key(t, Query{SitePersonalization: double}, 0.01) {
			t.Error("proportional vectors got distinct keys (normalization lost)")
		}
	})
	t.Run("tenantExcluded", func(t *testing.T) {
		a := Query{Tenant: "a", SitePersonalization: base}
		b := Query{Tenant: "b", SitePersonalization: base}
		if key(t, a, 0) != key(t, b, 0) {
			t.Error("Tenant leaked into the fingerprint")
		}
	})
	t.Run("tolZeroExactBits", func(t *testing.T) {
		near := base.Clone()
		near[0] = math.Nextafter(near[0], 1)
		if key(t, Query{SitePersonalization: base}, 0) == key(t, Query{SitePersonalization: near}, 0) {
			t.Error("tol=0 coalesced vectors differing by one ulp")
		}
		if key(t, Query{SitePersonalization: base}, 0) != key(t, Query{SitePersonalization: base.Clone()}, 0) {
			t.Error("tol=0 split bit-identical vectors")
		}
	})
	t.Run("tolInKey", func(t *testing.T) {
		if key(t, Query{SitePersonalization: base}, 0.01) == key(t, Query{SitePersonalization: base}, 0.02) {
			t.Error("different tolerances produced the same key")
		}
	})
	t.Run("docPersonalizationQuantized", func(t *testing.T) {
		a := Query{DocPersonalization: map[SiteID]Vector{2: {0.5, 0.5}}}
		b := Query{DocPersonalization: map[SiteID]Vector{2: {0.5, 0.5 + 1e-9}}}
		if key(t, a, 0.01) != key(t, b, 0.01) {
			t.Error("near-identical doc personalization got distinct keys")
		}
		c := Query{DocPersonalization: map[SiteID]Vector{3: {0.5, 0.5}}}
		if key(t, a, 0.01) == key(t, c, 0.01) {
			t.Error("doc personalization on different sites collided")
		}
	})
}

// TestCoalesceTolRoutesAndBounds: with CoalesceTol set, a query routes
// to the same flight as a near-identical one (proved by planting a
// sentinel result under the neighbor's key), and the mathematical gap
// the coalesced caller accepts — between its exact answer and its
// neighbor's — stays below the tolerance, as the 1-Lipschitz bound
// promises.
func TestCoalesceTolRoutesAndBounds(t *testing.T) {
	web := churnTestWeb()
	ctx := context.Background()
	const tol = 1e-3
	ns := web.Graph.NumSites()

	u := make(Vector, ns)
	v := make(Vector, ns)
	for i := range u {
		u[i] = 1 + float64(i%3)
		v[i] = u[i]
	}
	v[0] += 1e-7 // ‖û − v̂‖₁ ≪ tol after normalization
	normalize(u)
	normalize(v)

	eng, err := NewLocalEngine(web.Graph, EngineOptions{Coalesce: true, CoalesceTol: tol})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	qu := Query{SitePersonalization: u}
	qv := Query{SitePersonalization: v}
	ku, ok := qu.fingerprint(tol)
	if !ok {
		t.Fatal("personalized query not coalesceable")
	}
	if kv, _ := qv.fingerprint(tol); kv != ku {
		t.Fatal("near-identical queries did not share a fingerprint at the engine's tolerance")
	}

	// Plant u's (hypothetical) result under the shared key; v's Rank
	// must be served from it — sharing one solve.
	sentinel := &Result{DocRank: Vector{0.25, 0.75}, SiteIterations: 41}
	f := &flight{done: make(chan struct{}), res: sentinel}
	close(f.done)
	fg := eng.snap.Load().flights
	fg.mu.Lock()
	fg.m[ku] = f
	fg.mu.Unlock()
	res, err := eng.Rank(ctx, qv)
	fg.mu.Lock()
	delete(fg.m, ku)
	fg.mu.Unlock()
	if err != nil {
		t.Fatalf("coalesced Rank: %v", err)
	}
	if !reflect.DeepEqual(res, sentinel) {
		t.Error("similar query bypassed the shared flight")
	}
	if got := eng.ServingStats().CoalesceShared; got != 1 {
		t.Errorf("CoalesceShared = %d, want 1", got)
	}

	// The bound: u's exact answer, which a coalesced v-caller would be
	// served, is within tol of v's exact answer.
	exact, err := NewLocalEngine(churnTestWeb().Graph, EngineOptions{})
	if err != nil {
		t.Fatalf("exact NewLocalEngine: %v", err)
	}
	ru, err := exact.Rank(ctx, Query{SitePersonalization: u, Tol: 1e-12})
	if err != nil {
		t.Fatalf("exact Rank(u): %v", err)
	}
	rv, err := exact.Rank(ctx, Query{SitePersonalization: v, Tol: 1e-12})
	if err != nil {
		t.Fatalf("exact Rank(v): %v", err)
	}
	if d := ru.DocRank.L1Diff(rv.DocRank); d >= tol {
		t.Errorf("‖exact(u) − exact(v)‖₁ = %g, want < %g", d, tol)
	}
}

// normalize scales v in place to unit L1 mass — the solvers demand a
// probability distribution.
func normalize(v Vector) {
	var mass float64
	for _, x := range v {
		mass += x
	}
	for i := range v {
		v[i] /= mass
	}
}

// TestCoalesceTolZeroIsExact pins the degenerate contract: an engine
// with Coalesce but CoalesceTol=0 behaves exactly as before this knob
// existed — near-identical vectors do NOT share a flight.
func TestCoalesceTolZeroIsExact(t *testing.T) {
	web := churnTestWeb()
	ctx := context.Background()
	ns := web.Graph.NumSites()
	u := make(Vector, ns)
	for i := range u {
		u[i] = 1 / float64(ns)
	}
	v := u.Clone()
	v[0] = math.Nextafter(v[0], 1)

	eng, err := NewLocalEngine(web.Graph, EngineOptions{Coalesce: true})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	ku, _ := Query{SitePersonalization: u}.fingerprint(0)
	sentinel := &Result{DocRank: Vector{1}, SiteIterations: 7}
	f := &flight{done: make(chan struct{}), res: sentinel}
	close(f.done)
	fg := eng.snap.Load().flights
	fg.mu.Lock()
	fg.m[ku] = f
	fg.mu.Unlock()
	defer func() {
		fg.mu.Lock()
		delete(fg.m, ku)
		fg.mu.Unlock()
	}()

	res, err := eng.Rank(ctx, Query{SitePersonalization: v})
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	if reflect.DeepEqual(res, sentinel) {
		t.Error("tol=0 engine coalesced vectors differing by one ulp")
	}
	if !res.DocRank.IsDistribution(1e-8) {
		t.Error("uncoalesced result is not a distribution")
	}
}

// TestCoalesceTolUnnormalizedLeader: at CoalesceTol > 0 the fingerprint
// L1-normalizes, so v and 2·v share a key — and the solvers refuse 2·v.
// It has to be refused before it can lead a flight, or its failure is
// shared with every well-formed query coalesced behind it. The snapshot's
// Ranker pool is swapped for one that parks each solve until released, so
// whichever query leads the flight is held in it while the other arrives.
func TestCoalesceTolUnnormalizedLeader(t *testing.T) {
	web := churnTestWeb()
	ctx := context.Background()
	const tol = 1e-3
	v := make(Vector, web.Graph.NumSites())
	for i := range v {
		v[i] = 1 + float64(i%3)
	}
	normalize(v)
	double := v.Clone()
	for i := range double {
		double[i] *= 2
	}
	valid, malformed := Query{SitePersonalization: v}, Query{SitePersonalization: double}
	key, _ := valid.fingerprint(tol)
	if k, _ := malformed.fingerprint(tol); k != key {
		t.Fatal("v and 2·v do not share a fingerprint; the test pins nothing")
	}

	eng, err := NewLocalEngine(web.Graph, EngineOptions{Coalesce: true, CoalesceTol: tol})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	snap := eng.snap.Load()
	parked := make(chan struct{}, 2)
	release := make(chan struct{})
	base := snap.state.base
	snap.state.pool = &sync.Pool{New: func() any {
		parked <- struct{}{}
		<-release
		return base.Share()
	}}

	leaderGot := make(chan error, 1)
	go func() {
		_, err := eng.Rank(ctx, malformed)
		leaderGot <- err
	}()
	select {
	case err := <-leaderGot:
		if !errors.Is(err, ErrUnsupportedQuery) {
			t.Errorf("Rank(2·v) err = %v, want ErrUnsupportedQuery", err)
		}
	case <-parked:
		// Admitted, and leading the flight the valid query is about to join.
	}

	type answer struct {
		res *Result
		err error
	}
	followerGot := make(chan answer, 1)
	go func() {
		res, err := eng.Rank(ctx, valid)
		followerGot <- answer{res, err}
	}()
	// The valid query is in place once it has joined 2·v's flight or is
	// parked leading its own.
	deadline := time.Now().Add(5 * time.Second)
	for inPlace := false; !inPlace; {
		select {
		case <-parked:
			inPlace = true
		default:
			snap.flights.mu.Lock()
			f := snap.flights.m[key]
			snap.flights.mu.Unlock()
			inPlace = f != nil && f.waiters.Load() > 0
		}
		if time.Now().After(deadline) {
			t.Fatal("the valid query neither joined a flight nor reached its own solve")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	got := <-followerGot
	if got.err != nil {
		t.Fatalf("valid query coalesced behind 2·v: %v", got.err)
	}
	if !got.res.DocRank.IsDistribution(1e-8) {
		t.Error("the valid query's answer is not a distribution")
	}
}
