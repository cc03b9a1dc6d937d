package lmmrank

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrOverloaded reports a Rank call rejected at admission: the tenant's
// quota or the engine-wide MaxInFlight cap is reached and RejectOverload
// is set. Shed the query or retry on another replica; check with
// errors.Is. The concrete error is an *OverloadError carrying the tenant
// that was turned away — extract it with errors.As when a load shedder
// needs to know who to back off.
var ErrOverloaded = errors.New("lmmrank: engine overloaded")

// OverloadError is the concrete admission-rejection error. It matches
// ErrOverloaded under errors.Is, so existing overload checks keep
// working; errors.As additionally exposes which tenant was rejected and
// at which gate, so per-tenant backoff and fairness accounting don't
// have to parse error strings.
type OverloadError struct {
	// Tenant is the Query.Tenant of the rejected call ("" for an
	// untenanted query).
	Tenant string
	// PerTenant reports whether the tenant's own quota rejected the
	// call (true) or the engine-wide MaxInFlight cap did (false).
	PerTenant bool
}

func (e *OverloadError) Error() string {
	if e.PerTenant {
		return fmt.Sprintf("lmmrank: engine overloaded (tenant %q quota)", e.Tenant)
	}
	return "lmmrank: engine overloaded (engine-wide cap)"
}

// Is makes errors.Is(err, ErrOverloaded) succeed for every admission
// rejection, keyed or engine-wide.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// admitGate is the admission control in front of Rank: an optional
// engine-wide counting semaphore (MaxInFlight) behind optional keyed
// per-tenant semaphores (TenantQuota), so one flooding tenant exhausts
// its own quota instead of the shared slots. A nil gate (no caps
// configured) admits everything; all methods are nil-safe so call sites
// stay unconditional.
//
// Acquisition order is tenant quota first, engine-wide cap second —
// both released in reverse on failure — so a tenant can never hold more
// engine slots than its quota, which is the starvation bound: size
// MaxInFlight at least Σ quotas (or leave it 0) and a quiet tenant's
// queries always find both gates open regardless of how hard another
// tenant floods.
type admitGate struct {
	slots  chan struct{} // engine-wide cap; nil = uncapped
	reject bool
	quota  int // per-tenant cap; 0 = no keyed admission

	mu      sync.Mutex
	tenants map[string]*tenantGate
}

// tenantGate is one tenant's semaphore. refs counts callers holding or
// waiting on it; the map entry lives exactly while refs > 0, so the
// tenant table stays bounded by concurrent admissions rather than by
// the set of tenant names ever seen.
type tenantGate struct {
	slots chan struct{}
	refs  int
}

// newAdmitGate returns the gate for the configured caps, or nil when
// neither an engine-wide cap nor a tenant quota was asked for.
func newAdmitGate(maxInFlight, tenantQuota int, reject bool) *admitGate {
	if maxInFlight <= 0 && tenantQuota <= 0 {
		return nil
	}
	g := &admitGate{reject: reject}
	if maxInFlight > 0 {
		g.slots = make(chan struct{}, maxInFlight)
	}
	if tenantQuota > 0 {
		g.quota = tenantQuota
		g.tenants = make(map[string]*tenantGate)
	}
	return g
}

// enter pins tenant's gate (creating it on first use) and takes a
// reference; every enter must pair with exactly one leave.
func (g *admitGate) enter(tenant string) *tenantGate {
	g.mu.Lock()
	defer g.mu.Unlock()
	tg := g.tenants[tenant]
	if tg == nil {
		tg = &tenantGate{slots: make(chan struct{}, g.quota)}
		g.tenants[tenant] = tg
	}
	tg.refs++
	return tg
}

// leave drops one reference on tenant's gate, deleting the entry when
// no caller holds or waits on it anymore.
func (g *admitGate) leave(tenant string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	tg := g.tenants[tenant]
	tg.refs--
	if tg.refs == 0 {
		delete(g.tenants, tenant)
	}
}

// acquire takes the admission slots for one query — the tenant's quota
// slot first (when TenantQuota is set), then an engine-wide slot (when
// MaxInFlight is set). Each gate admits immediately if a slot is free,
// otherwise fails fast with an *OverloadError (reject mode) or queues
// until a slot frees or ctx aborts (queue mode). On any failure every
// slot already taken is returned.
func (g *admitGate) acquire(ctx context.Context, tenant string) error {
	if g == nil {
		return nil
	}
	var tg *tenantGate
	if g.quota > 0 {
		tg = g.enter(tenant)
		select {
		case tg.slots <- struct{}{}:
		default:
			if g.reject {
				g.leave(tenant)
				return &OverloadError{Tenant: tenant, PerTenant: true}
			}
			select {
			case tg.slots <- struct{}{}:
			case <-ctx.Done():
				g.leave(tenant)
				return ctx.Err()
			}
		}
	}
	if g.slots != nil {
		select {
		case g.slots <- struct{}{}:
		default:
			if g.reject {
				g.releaseTenant(tenant, tg)
				return &OverloadError{Tenant: tenant}
			}
			select {
			case g.slots <- struct{}{}:
			case <-ctx.Done():
				g.releaseTenant(tenant, tg)
				return ctx.Err()
			}
		}
	}
	return nil
}

// releaseTenant undoes the tenant half of an acquire that failed at the
// engine-wide gate.
func (g *admitGate) releaseTenant(tenant string, tg *tenantGate) {
	if tg == nil {
		return
	}
	<-tg.slots
	g.leave(tenant)
}

// release returns the slots of a successful acquire for tenant.
func (g *admitGate) release(tenant string) {
	if g == nil {
		return
	}
	if g.slots != nil {
		<-g.slots
	}
	if g.quota > 0 {
		g.mu.Lock()
		tg := g.tenants[tenant]
		g.mu.Unlock()
		<-tg.slots
		g.leave(tenant)
	}
}

// ServingStats is a point-in-time snapshot of an engine's serving
// counters, read with LocalEngine.ServingStats / DistEngine.ServingStats.
// All counts are cumulative over the engine's lifetime.
type ServingStats struct {
	// Ranks counts queries admitted into the ranking phase (including
	// those served by coalescing onto another caller's computation).
	Ranks int64
	// Overloads counts Rank calls rejected with ErrOverloaded, at
	// either gate; TenantOverloads breaks the rejections down by the
	// rejected Query.Tenant.
	Overloads       int64
	TenantOverloads map[string]int64
	// CoalesceShared counts queries that were answered from another
	// caller's in-flight computation instead of solving themselves.
	CoalesceShared int64
	// TopKIndexServes counts queries answered from the snapshot's
	// maintained top-k index instead of a fresh solve + full re-rank.
	TopKIndexServes int64
}

// servingCounters is the engines' shared counter block behind
// ServingStats. The scalar counters are lock-free; the per-tenant
// rejection map is small and cold (rejections only) so a mutex is fine.
type servingCounters struct {
	ranks     atomic.Int64
	overloads atomic.Int64
	coalesced atomic.Int64
	topkIndex atomic.Int64

	mu              sync.Mutex
	tenantOverloads map[string]int64
}

// overload records one admission rejection.
func (c *servingCounters) overload(tenant string) {
	c.overloads.Add(1)
	c.mu.Lock()
	if c.tenantOverloads == nil {
		c.tenantOverloads = make(map[string]int64)
	}
	c.tenantOverloads[tenant]++
	c.mu.Unlock()
}

// snapshot copies the counters into a caller-owned ServingStats.
func (c *servingCounters) snapshot() ServingStats {
	s := ServingStats{
		Ranks:           c.ranks.Load(),
		Overloads:       c.overloads.Load(),
		CoalesceShared:  c.coalesced.Load(),
		TopKIndexServes: c.topkIndex.Load(),
	}
	c.mu.Lock()
	if len(c.tenantOverloads) > 0 {
		s.TenantOverloads = make(map[string]int64, len(c.tenantOverloads))
		for k, v := range c.tenantOverloads {
			s.TenantOverloads[k] = v
		}
	}
	c.mu.Unlock()
	return s
}

// snapshot is one immutable serving state: a graph, the in-flight table
// coalescing queries against it, and what the backend built (or learned)
// for exactly that graph. Everything a query touches lives here, so a
// query that loaded a snapshot is insulated from any later Update.
type snapshot[S any] struct {
	dg      *DocGraph
	flights *flightGroup
	state   S
}

// backend is the one thing the Partition Theorem lets two engines differ
// in — who solves the local DocRanks — as the two calls the front makes.
type backend[S any] interface {
	// solve answers a validated, admitted query against a pinned
	// snapshot. The Result is caller-owned. A backend that already holds
	// the TopK table fills Top; the front ranks DocRank otherwise.
	solve(ctx context.Context, snap *snapshot[S], q Query) (*Result, error)
	// rebuild returns the state to publish beside dg, which differs from
	// cur.dg in (at most) the changed sites. It must leave cur serving:
	// on an error nothing is published.
	rebuild(ctx context.Context, cur *snapshot[S], dg *DocGraph, changed []SiteID) (S, error)
}

// server is the serving front both engines embed: everything between the
// caller and the solve. Rank is validate → admit → pin the snapshot →
// coalesce → backend.solve → Top → hand-off; Update is COW apply →
// backend.rebuild → publish. It knows nothing of what a state S holds.
type server[S any] struct {
	be          backend[S]
	admit       *admitGate
	coalesce    bool
	coalesceTol float64
	stats       servingCounters

	// snap is the serving state; rank loads it once and never looks back.
	// Only publish stores it.
	snap atomic.Pointer[snapshot[S]]

	// updateMu serializes Updates against each other (queries don't take
	// it). dirty accumulates changed sites across failed Updates: on the
	// nil-Apply path the graph mutates before the rebuild can fail, so the
	// sites stay recorded and the next successful Update rebuilds them too
	// — otherwise a later Update listing only its own sites would bless
	// the earlier edit's stale structure.
	updateMu sync.Mutex
	dirty    map[SiteID]bool
}

// serve wires the front to its backend and publishes the first snapshot.
func (e *server[S]) serve(be backend[S], admit *admitGate, coalesce bool, coalesceTol float64, dg *DocGraph, state S) {
	e.be, e.admit, e.coalesce, e.coalesceTol = be, admit, coalesce, coalesceTol
	e.dirty = make(map[SiteID]bool)
	e.publish(dg, state)
}

// publish makes (dg, state) the serving snapshot with one pointer store.
// Each snapshot gets its own flight group, so queries only ever coalesce
// onto work running against their own snapshot.
func (e *server[S]) publish(dg *DocGraph, state S) {
	snap := &snapshot[S]{dg: dg, flights: newFlightGroup(), state: state}
	snap.flights.shared = &e.stats.coalesced
	e.snap.Store(snap)
}

// rank is the whole path of one query in front of the solve.
func (e *server[S]) rank(ctx context.Context, q Query) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := q.validate(); err != nil {
		return nil, err
	}
	if err := e.admit.acquire(ctx, q.Tenant); err != nil {
		if errors.Is(err, ErrOverloaded) {
			e.stats.overload(q.Tenant)
		}
		return nil, err
	}
	defer e.admit.release(q.Tenant)
	e.stats.ranks.Add(1)
	// One load pins the whole serving state. An Update publishing
	// mid-query swaps the pointer for *later* queries; this one finishes
	// on the snapshot it started on.
	snap := e.snap.Load()
	solve := func() (*Result, error) {
		res, err := e.be.solve(ctx, snap, q)
		if err == nil && q.TopK > 0 && res.Top == nil {
			res.Top = TopDocs(snap.dg, res.DocRank, q.TopK)
		}
		return res, err
	}
	if e.coalesce {
		if key, ok := q.fingerprint(e.coalesceTol); ok {
			return snap.flights.do(ctx, key, solve)
		}
	}
	return solve()
}

// Update applies one batch of graph churn and publishes the result as a
// new snapshot: delta.Apply (if any) runs against a copy-on-write clone
// of the served graph, the backend rebuilds only the changed sites'
// structure beside the serving one, and one pointer store swaps it in.
// In-flight queries are never drained: they complete on the snapshot they
// started on. What each engine carries warm across the swap is described
// on LocalEngine and DistEngine.
//
// On the Apply path an error leaves the engine exactly as before — the
// clone is discarded, nothing was mutated, nothing is marked dirty: a
// failed Update is a no-op. On the nil-Apply path the caller mutated the
// serving graph before calling, so a failure leaves queries failing with
// ErrGraphMutated until a successful Update; the delta's sites stay
// recorded either way on that path, so a later Update rebuilds them too.
func (e *server[S]) Update(ctx context.Context, delta GraphDelta) error {
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	cur := e.snap.Load()
	if delta.Apply == nil {
		// The serving graph is already mutated: record the sites before
		// anything fallible (even the ctx check) can return.
		for _, s := range delta.ChangedSites {
			e.dirty[s] = true
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	dg := cur.dg
	if delta.Apply != nil {
		dg = cur.dg.CloneCOW()
		if err := delta.Apply(dg); err != nil {
			// The clone dies here; the serving graph never changed and the
			// delta's sites are not recorded — nothing needs rebuilding.
			return fmt.Errorf("lmmrank: update apply: %w", err)
		}
	}
	state, err := e.be.rebuild(ctx, cur, dg, unionSites(e.dirty, delta.ChangedSites))
	if err != nil {
		return err
	}
	e.publish(dg, state)
	clear(e.dirty)
	return nil
}

// unionSites returns dirty ∪ changed as a slice without mutating dirty —
// the changed list a rebuild must honor so sites from earlier failed
// Updates are not forgotten, computed non-destructively so a rebuild
// that then fails leaves the pending set exactly as it was.
func unionSites(dirty map[SiteID]bool, changed []SiteID) []SiteID {
	out := make([]SiteID, 0, len(dirty)+len(changed))
	for s := range dirty {
		out = append(out, s)
	}
	for _, s := range changed {
		if !dirty[s] {
			out = append(out, s)
		}
	}
	return out
}

// DocGraph returns the graph the engine currently serves. Apply-path
// Updates evolve the graph through copy-on-write clones, so the returned
// pointer changes across Updates — re-fetch after updating rather than
// caching the construction-time pointer.
func (e *server[S]) DocGraph() *DocGraph { return e.snap.Load().dg }

// ServingStats returns a point-in-time copy of the engine's cumulative
// serving counters: admitted queries, admission rejections (total and
// per tenant), coalesced shares and top-k index serves (always 0 on a
// DistEngine — the maintained index is a LocalEngine feature).
func (e *server[S]) ServingStats() ServingStats { return e.stats.snapshot() }

// flight is one in-progress computation other callers may wait on.
// res/err are written exactly once, before done closes; waiters read
// them only after <-done. waiters counts the callers coalesced onto
// this flight so far; it only moves under flightGroup.mu (atomic so
// tests may poll it), which is what lets the leader trust a zero.
type flight struct {
	done    chan struct{}
	waiters atomic.Int32
	res     *Result
	err     error
}

// flightGroup coalesces concurrent similar queries: the first caller
// for a fingerprint becomes the leader and computes; callers arriving
// while the flight is open wait on it and receive their own deep copy
// of the leader's result. The leader hands its result off uncopied when
// nobody joined — the common case pays for one answer, not two — and
// takes a copy too when somebody did, so no two callers ever alias
// memory. Each serving snapshot owns one group, so queries only ever
// coalesce onto work running against their own snapshot. shared, when
// non-nil, counts the waiters served from someone else's computation.
type flightGroup struct {
	mu     sync.Mutex
	m      map[string]*flight
	shared *atomic.Int64
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// do runs fn under single-flight semantics for key. A waiter whose own
// ctx aborts returns ctx.Err() without waiting further. A waiter whose
// leader failed with a context abort (the leader's ctx, not the
// waiter's) retries as a fresh leader if its own ctx is still live —
// one caller's deadline must not fail everyone coalesced behind it;
// any other leader error is shared as-is.
func (fg *flightGroup) do(ctx context.Context, key string, fn func() (*Result, error)) (*Result, error) {
	for {
		fg.mu.Lock()
		if f, ok := fg.m[key]; ok {
			f.waiters.Add(1)
			fg.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if f.err != nil {
				if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
					if ctx.Err() == nil {
						continue
					}
					return nil, ctx.Err()
				}
				return nil, f.err
			}
			if fg.shared != nil {
				fg.shared.Add(1)
			}
			return cloneResult(f.res), nil
		}
		f := &flight{done: make(chan struct{})}
		fg.m[key] = f
		fg.mu.Unlock()
		f.res, f.err = fn()
		// Closing the flight and counting who joined it are one critical
		// section: a caller either joined before (and is counted) or finds
		// no flight and leads its own.
		fg.mu.Lock()
		delete(fg.m, key)
		alone := f.waiters.Load() == 0
		fg.mu.Unlock()
		close(f.done)
		if f.err != nil {
			return nil, f.err
		}
		if alone {
			return f.res, nil
		}
		return cloneResult(f.res), nil
	}
}

// fingerprint returns a collision-resistant key over every field that
// determines a query's answer, and whether the query is coalesceable at
// all. A non-nil DomainOf is not — function identity cannot be hashed —
// and such queries always compute individually. Tenant is deliberately
// excluded: it names the caller for admission, not the answer, and a
// coalesced result is a private copy either way. The encoding is
// injective per tolerance: every variable-length field is
// length-prefixed and the map is serialized in sorted key order, so
// distinct queries cannot collide by concatenation.
//
// tol is the similarity-coalescing tolerance (EngineOptions.CoalesceTol).
// At tol = 0 personalization vectors hash by exact float bits — only
// bit-identical queries share a key. At tol > 0 each vector is first
// L1-normalized (a no-op to 1e-6 for what Query.validate lets through,
// which is what keeps proportional vectors one query) and then bucketed
// to a grid of step tol/len(v): two
// vectors landing in the same buckets differ by less than tol in L1
// after normalization, and personalized PageRank is 1-Lipschitz in the
// L1 norm of its teleport vector, so the coalesced answer is within tol
// of each caller's exact answer (plus solver tolerance).
func (q Query) fingerprint(tol float64) (string, bool) {
	if q.DomainOf != nil {
		return "", false
	}
	h := sha256.New()
	var buf [8]byte
	putU := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	putF := func(f float64) { putU(math.Float64bits(f)) }
	putVec := func(v Vector) {
		putU(uint64(len(v)))
		if tol <= 0 {
			putU(0) // branch tag: exact bits
			for _, x := range v {
				putF(x)
			}
			return
		}
		var mass float64
		for _, x := range v {
			mass += x
		}
		if math.IsNaN(mass) || math.IsInf(mass, 0) || mass <= 0 {
			// Not a cleanly normalizable vector (validate rejects these
			// before admission; the fuzzer does not go through it) — fall
			// back to exact bits rather than divide by a degenerate mass.
			// The branch tag keeps a raw encoding from ever colliding with
			// a bucketed one.
			putU(0)
			for _, x := range v {
				putF(x)
			}
			return
		}
		putU(1) // branch tag: quantized buckets
		step := tol / float64(len(v))
		for _, x := range v {
			// The bucket stays a float (math.Round yields an exact
			// integer-valued float64), so enormous ratios degrade to
			// coarse buckets instead of overflowing an int conversion.
			putF(math.Round(x / mass / step))
		}
	}
	putF(tol)
	putF(q.Damping)
	putF(q.Tol)
	putU(uint64(int64(q.MaxIter)))
	putU(uint64(int64(q.TopK)))
	var flags uint64
	if q.ThreeLayer {
		flags |= 1
	}
	if q.WantLocalRanks {
		flags |= 2
	}
	if q.SitePersonalization != nil {
		flags |= 4
	}
	if q.DocPersonalization != nil {
		flags |= 8
	}
	putU(flags)
	putVec(q.SitePersonalization)
	putU(uint64(len(q.DocPersonalization)))
	if len(q.DocPersonalization) > 0 {
		sites := make([]SiteID, 0, len(q.DocPersonalization))
		for s := range q.DocPersonalization {
			sites = append(sites, s)
		}
		sort.Slice(sites, func(a, b int) bool { return sites[a] < sites[b] })
		for _, s := range sites {
			putU(uint64(int64(s)))
			putVec(q.DocPersonalization[s])
		}
	}
	return string(h.Sum(nil)), true
}

// cloneResult deep-copies a Result so every coalesced caller owns its
// answer outright. Nil fields stay nil — a copy must be
// indistinguishable from an uncoalesced result for the same query.
func cloneResult(r *Result) *Result {
	if r == nil {
		return nil
	}
	c := &Result{SiteIterations: r.SiteIterations}
	if r.DocRank != nil {
		c.DocRank = r.DocRank.Clone()
	}
	if r.SiteRank != nil {
		c.SiteRank = r.SiteRank.Clone()
	}
	if r.Domains != nil {
		c.Domains = append([]string(nil), r.Domains...)
	}
	if r.DomainRank != nil {
		c.DomainRank = r.DomainRank.Clone()
	}
	if r.DomainOfSite != nil {
		c.DomainOfSite = append([]int(nil), r.DomainOfSite...)
	}
	if r.SiteEntry != nil {
		c.SiteEntry = r.SiteEntry.Clone()
	}
	if r.LocalRanks != nil {
		c.LocalRanks = cloneVectors(r.LocalRanks)
	}
	if r.Top != nil {
		c.Top = append([]DocScore(nil), r.Top...)
	}
	if r.LocalIterations != nil {
		c.LocalIterations = append([]int(nil), r.LocalIterations...)
	}
	if r.Dist != nil {
		stats := *r.Dist
		c.Dist = &stats
	}
	return c
}
