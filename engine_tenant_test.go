package lmmrank

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestTenantQuotaStarvation is the acceptance pin of keyed admission:
// with per-tenant quotas set, a flooding tenant exhausts only its own
// quota — every one of its over-quota calls is rejected at the tenant
// gate — while a quiet tenant's queries are never rejected, no matter
// how hard the flood presses. Runs under -race via make race.
func TestTenantQuotaStarvation(t *testing.T) {
	web := churnTestWeb()
	ctx := context.Background()
	eng, err := NewLocalEngine(web.Graph, EngineOptions{
		MaxInFlight:    8,
		TenantQuota:    2,
		RejectOverload: true,
	})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}

	// The greedy tenant fills its whole quota with queries parked
	// deterministically mid-flight.
	const quota = 2
	release := make(chan struct{})
	holderGot := make(chan error, quota)
	for i := 0; i < quota; i++ {
		started := make(chan struct{})
		go func() {
			_, err := eng.Rank(ctx, Query{
				Tenant:     "greedy",
				ThreeLayer: true,
				DomainOf:   blockingDomainOf(started, release),
			})
			holderGot <- err
		}()
		<-started
	}

	// The flood: every further greedy call must bounce off the tenant
	// gate, concurrently with the quiet tenant's traffic below.
	const floods = 10
	floodGot := make(chan error, floods)
	var wg sync.WaitGroup
	for i := 0; i < floods; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := eng.Rank(ctx, Query{Tenant: "greedy"})
			floodGot <- err
		}()
	}

	// The quiet tenant keeps serving throughout: its quota is its own,
	// and the engine-wide cap (8 ≥ 2+2) has slots the flood cannot take.
	for i := 0; i < 10; i++ {
		if _, err := eng.Rank(ctx, Query{Tenant: "quiet"}); err != nil {
			t.Fatalf("quiet tenant query %d rejected during the flood: %v", i, err)
		}
	}

	wg.Wait()
	for i := 0; i < floods; i++ {
		err := <-floodGot
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("flood call err = %v, want ErrOverloaded", err)
		}
		var oe *OverloadError
		if !errors.As(err, &oe) {
			t.Fatalf("flood call err = %T, want *OverloadError", err)
		}
		if oe.Tenant != "greedy" || !oe.PerTenant {
			t.Errorf("OverloadError = %+v, want Tenant=greedy PerTenant=true", oe)
		}
	}

	close(release)
	for i := 0; i < quota; i++ {
		if err := <-holderGot; err != nil {
			t.Fatalf("greedy holder %d: %v", i, err)
		}
	}
	// With its quota free again the greedy tenant serves normally.
	if _, err := eng.Rank(ctx, Query{Tenant: "greedy"}); err != nil {
		t.Errorf("greedy Rank after quota freed: %v", err)
	}

	stats := eng.ServingStats()
	if stats.Overloads != floods {
		t.Errorf("Overloads = %d, want %d", stats.Overloads, floods)
	}
	if got := stats.TenantOverloads["greedy"]; got != floods {
		t.Errorf("TenantOverloads[greedy] = %d, want %d", got, floods)
	}
	if got := stats.TenantOverloads["quiet"]; got != 0 {
		t.Errorf("TenantOverloads[quiet] = %d, want 0", got)
	}
	wantRanks := int64(quota + 10 + 1)
	if stats.Ranks != wantRanks {
		t.Errorf("Ranks = %d, want %d", stats.Ranks, wantRanks)
	}

	// The tenant table is bounded by concurrent admissions: with
	// everything drained, no entries survive.
	eng.admit.mu.Lock()
	live := len(eng.admit.tenants)
	eng.admit.mu.Unlock()
	if live != 0 {
		t.Errorf("%d tenant gates survived the drain, want 0", live)
	}
}

// TestTenantQuotaQueues covers queue mode: an over-quota call waits for
// its tenant's slot (honoring ctx while parked) instead of failing, and
// proceeds once the tenant frees a slot.
func TestTenantQuotaQueues(t *testing.T) {
	web := churnTestWeb()
	ctx := context.Background()
	eng, err := NewLocalEngine(web.Graph, EngineOptions{TenantQuota: 1})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	holderGot := make(chan error, 1)
	go func() {
		_, err := eng.Rank(ctx, Query{
			Tenant:     "t",
			ThreeLayer: true,
			DomainOf:   blockingDomainOf(started, release),
		})
		holderGot <- err
	}()
	<-started

	// A queued same-tenant caller honors its context while waiting.
	qctx, cancel := context.WithCancel(ctx)
	queuedGot := make(chan error, 1)
	go func() {
		_, err := eng.Rank(qctx, Query{Tenant: "t"})
		queuedGot <- err
	}()
	// Another tenant is not queued at all — its own gate is open.
	done := make(chan error, 1)
	go func() {
		_, err := eng.Rank(ctx, Query{Tenant: "other"})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("other tenant behind a full foreign quota: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("other tenant's query queued behind a foreign quota")
	}

	cancel()
	if err := <-queuedGot; !errors.Is(err, context.Canceled) {
		t.Errorf("queued same-tenant Rank err = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-holderGot; err != nil {
		t.Fatalf("holder Rank: %v", err)
	}
	if _, err := eng.Rank(ctx, Query{Tenant: "t"}); err != nil {
		t.Errorf("Rank after the tenant slot freed: %v", err)
	}
}

// TestDistEngineTenantQuota: what is distributed about keyed admission —
// an over-quota call bounces at the tenant gate before ever reaching the
// wire. (Which gate the error names is TestOverloadErrorGates, on both
// engines.)
func TestDistEngineTenantQuota(t *testing.T) {
	web := churnTestWeb()
	ctx := context.Background()
	cl, err := StartCluster(2)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()
	eng, err := NewDistEngine(cl, web.Graph, DistConfig{TenantQuota: 1, RejectOverload: true})
	if err != nil {
		t.Fatalf("NewDistEngine: %v", err)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	holderGot := make(chan error, 1)
	go func() {
		_, err := eng.Rank(ctx, Query{
			Tenant:     "t",
			ThreeLayer: true,
			DomainOf:   blockingDomainOf(started, release),
		})
		holderGot <- err
	}()
	<-started

	// The holder is parked inside its run, so the wire is silent but for
	// what the rejected call would send.
	before, _, _ := cl.Coord.Stats()
	if _, err = eng.Rank(ctx, Query{Tenant: "t"}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-quota dist Rank err = %v, want ErrOverloaded", err)
	}
	if after, _, _ := cl.Coord.Stats(); after != before {
		t.Errorf("the rejected call put %d messages on the wire", after-before)
	}

	close(release)
	if err := <-holderGot; err != nil {
		t.Fatalf("holder Rank: %v", err)
	}
}

// TestOverloadErrorGates pins which gate an OverloadError names, on both
// engines: the engine-wide cap rejects with PerTenant=false, the tenant
// quota with PerTenant=true, both match ErrOverloaded under errors.Is and
// are counted against the rejected tenant; serving resumes once the
// holder's slot frees.
func TestOverloadErrorGates(t *testing.T) {
	ctx := context.Background()
	gates := []struct {
		name      string
		opts      EngineOptions
		rejected  string // the tenant calling while "a" holds the only slot
		perTenant bool
	}{
		{"engineWide", EngineOptions{MaxInFlight: 1, RejectOverload: true}, "b", false},
		{"tenantQuota", EngineOptions{TenantQuota: 1, RejectOverload: true}, "a", true},
	}
	for _, gate := range gates {
		t.Run(gate.name, func(t *testing.T) {
			bothEngines(t, gate.opts, func(t *testing.T, eng servedEngine) {
				started := make(chan struct{})
				release := make(chan struct{})
				holderGot := make(chan error, 1)
				go func() {
					_, err := eng.Rank(ctx, Query{Tenant: "a", ThreeLayer: true, DomainOf: blockingDomainOf(started, release)})
					holderGot <- err
				}()
				<-started
				_, err := eng.Rank(ctx, Query{Tenant: gate.rejected})
				var oe *OverloadError
				if !errors.As(err, &oe) || !errors.Is(err, ErrOverloaded) {
					t.Fatalf("rejected err = %v, want an *OverloadError matching ErrOverloaded", err)
				}
				if oe.Tenant != gate.rejected || oe.PerTenant != gate.perTenant {
					t.Errorf("OverloadError = %+v, want Tenant=%s PerTenant=%v", oe, gate.rejected, gate.perTenant)
				}
				if got := eng.ServingStats().TenantOverloads[gate.rejected]; got != 1 {
					t.Errorf("TenantOverloads[%s] = %d, want 1", gate.rejected, got)
				}
				close(release)
				if err := <-holderGot; err != nil {
					t.Fatalf("holder: %v", err)
				}
				if _, err := eng.Rank(ctx, Query{Tenant: gate.rejected}); err != nil {
					t.Errorf("Rank after the slot freed: %v", err)
				}
			})
		})
	}
}
