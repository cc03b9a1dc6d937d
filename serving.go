package lmmrank

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"lmmrank/internal/dist/coordinator"
	"lmmrank/internal/lmm"
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
	// TopKIndexServes counts queries whose Top table came from the
	// snapshot's top-k index instead of a full re-rank: every TopK query
	// served from the snapshot's solutions, on either engine.
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
		s.TenantOverloads = maps.Clone(c.tenantOverloads)
	}
	c.mu.Unlock()
	return s
}

// snapshot is one immutable serving state, one shape for both engines: a
// graph and its mutation version when the snapshot was published, the
// in-flight table coalescing queries against it, the Ranker built for
// exactly that graph and the free list of its clones, the solutions at
// the default parameters once they are filled (sol) and, until then, what
// the fill starts from (from: the previous snapshot's solutions, or what
// a fleet's fill reuses of them), and the graph's shard digests, which
// every fleet run reads and the first one records. Everything a query
// touches lives here, so a query that loaded a snapshot is insulated from
// any later Update; all but the pool and the two atomics is immutable
// once published.
type snapshot struct {
	dg      *DocGraph
	version uint64
	flights *flightGroup
	base    *lmm.Ranker
	pool    *rankerPool
	from    *solutions
	sol     atomic.Pointer[solutions]
	digests atomic.Pointer[coordinator.Digests]
}

// server is the serving front both engines embed: everything between the
// caller and the solve. Rank is validate → zero the spelled-out defaults
// → admit → pin the snapshot →
// check its graph version and the query's vector shapes against it →
// coalesce → solve → Top → hand-off; Update is COW apply → rebuild →
// publish. The engines differ only in src, where the local DocRanks come
// from; nothing here asks which one it serves.
type server struct {
	src         source
	parallelism int
	admit       *admitGate
	coalesce    bool
	coalesceTol float64
	stats       servingCounters

	// snap is the serving state; rank loads it once and never looks back.
	// Only publish stores it.
	snap atomic.Pointer[snapshot]

	// updateMu serializes Updates against each other (queries don't take
	// it).
	updateMu sync.Mutex
}

// serve validates dg, precomputes its Ranker (the SiteGraph aggregated
// per sg) and publishes the first snapshot, started from no solutions. No
// query runs beside it yet, so a source that fills on publish solves on
// every core.
func (e *server) serve(dg *DocGraph, sg SiteGraphOptions) error {
	rk, err := lmm.NewRanker(dg, lmm.RankerOptions{SiteGraph: sg})
	if err != nil {
		return err
	}
	snap := &snapshot{dg: dg, base: rk, from: &solutions{}}
	if err := e.prime(context.TODO(), snap, nil, 0); err != nil {
		return err
	}
	e.publish(snap)
	return nil
}

// publish makes snap the serving snapshot with one pointer store,
// recording its graph's version. Each snapshot gets its own flight group,
// so queries only ever coalesce onto work running against their own
// snapshot.
func (e *server) publish(snap *snapshot) {
	snap.version, snap.flights = snap.dg.G.Version(), newFlightGroup()
	snap.flights.shared = &e.stats.coalesced
	e.snap.Store(snap)
}

// Rank answers one query. Safe for concurrent use; the result is
// caller-owned; a cancelled ctx aborts the query mid-computation with
// ctx.Err(). With MaxInFlight set the call first takes an admission slot
// (queueing or failing with ErrOverloaded per RejectOverload); with
// Coalesce set it may share one computation with concurrent identical
// queries.
func (e *server) Rank(ctx context.Context, q Query) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := q.validate(); err != nil {
		return nil, err
	}
	q = q.zeroDefaults()
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
	// Stale structure is never served: a graph mutated outside Update no
	// longer matches what the snapshot holds, whether the query would
	// solve on the snapshot's structure or compose its solutions.
	if snap.dg.G.Version() != snap.version {
		return nil, ErrGraphMutated
	}
	if err := q.fits(snap.dg); err != nil {
		return nil, err
	}
	solve := func() (*Result, error) {
		res, err := e.solve(ctx, snap, q)
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
// new snapshot: delta.Apply runs against a copy-on-write clone of the
// served graph, the engine rebuilds beside the serving structure only the
// sites the clone wrote (DocGraph.ChangedSince), and one pointer store
// swaps it in. In-flight queries are never drained: they complete on the
// snapshot they started on. What each engine carries warm across the swap
// is described on LocalEngine and DistEngine.
//
// A nil Apply is refused, and so is any Update once the serving graph
// was mutated behind the engine's back (ErrGraphMutated): nothing
// recorded what changed. An error leaves the engine exactly as before —
// the clone is discarded and nothing was mutated: a failed Update is a
// no-op.
func (e *server) Update(ctx context.Context, delta GraphDelta) error {
	if delta.Apply == nil {
		return errors.New("lmmrank: update: GraphDelta.Apply is nil")
	}
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	cur := e.snap.Load()
	if cur.dg.G.Version() != cur.version {
		return ErrGraphMutated
	}
	dg := cur.dg.CloneCOW()
	if err := delta.Apply(dg); err != nil {
		return fmt.Errorf("lmmrank: update apply: %w", err)
	}
	next, err := e.rebuild(ctx, cur, dg)
	if err != nil {
		return err
	}
	e.publish(next)
	return nil
}

// DocGraph returns the graph the engine currently serves. Updates evolve
// the graph through copy-on-write clones, so the returned pointer changes
// across Updates — re-fetch after updating rather than caching the
// construction-time pointer.
func (e *server) DocGraph() *DocGraph { return e.snap.Load().dg }

// ServingStats returns a point-in-time copy of the engine's cumulative
// serving counters: admitted queries, admission rejections (total and
// per tenant), coalesced shares and top-k index serves.
func (e *server) ServingStats() ServingStats { return e.stats.snapshot() }

// flight is one in-progress computation other callers may wait on.
// res, err and copies are written exactly once, before done closes;
// waiters read them only after <-done. waiters counts the callers
// coalesced onto this flight so far; it only moves under flightGroup.mu
// (atomic so tests may poll it), which is what lets the leader trust the
// count it reads there once the flight is closed. copies holds one deep
// copy of res per waiter, in the order they joined.
type flight struct {
	done    chan struct{}
	waiters atomic.Int32
	res     *Result
	err     error
	copies  []*Result
}

// flightGroup coalesces concurrent similar queries: the first caller
// for a fingerprint becomes the leader and computes; callers arriving
// while the flight is open wait on it. The leader receives the flight's
// result; each waiter a deep copy the leader made before the flight
// closed — a flight of n callers pays for n answers, and no two callers
// ever alias memory: a waiter never reads the result the leader's caller
// may already be mutating. Each serving snapshot owns one group, so
// queries only ever coalesce onto work running against their own
// snapshot. shared, when non-nil, counts the waiters served from someone
// else's computation.
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
			joined := int(f.waiters.Add(1)) - 1
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
			if joined < len(f.copies) {
				return f.copies[joined], nil
			}
			// A flight nobody led — one planted whole — has no copies.
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
		joined := int(f.waiters.Load())
		fg.mu.Unlock()
		if f.err == nil && joined > 0 {
			copies := make([]*Result, joined)
			for i := range copies {
				copies[i] = cloneResult(f.res)
			}
			f.copies = copies
		}
		close(f.done)
		if f.err != nil {
			return nil, f.err
		}
		return f.res, nil
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
	var flags uint64 // bit i: the i-th of these is set
	for i, set := range []bool{q.ThreeLayer, q.WantLocalRanks, q.SitePersonalization != nil, q.DocPersonalization != nil} {
		if set {
			flags |= 1 << i
		}
	}
	putU(flags)
	putVec(q.SitePersonalization)
	putU(uint64(len(q.DocPersonalization)))
	for _, s := range slices.Sorted(maps.Keys(q.DocPersonalization)) {
		putU(uint64(int64(s)))
		putVec(q.DocPersonalization[s])
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
	// slices.Clone keeps a nil slice nil.
	c := &Result{
		DocRank:         slices.Clone(r.DocRank),
		SiteRank:        slices.Clone(r.SiteRank),
		Domains:         slices.Clone(r.Domains),
		DomainRank:      slices.Clone(r.DomainRank),
		DomainOfSite:    slices.Clone(r.DomainOfSite),
		SiteEntry:       slices.Clone(r.SiteEntry),
		Top:             slices.Clone(r.Top),
		SiteIterations:  r.SiteIterations,
		LocalIterations: slices.Clone(r.LocalIterations),
	}
	if r.LocalRanks != nil {
		c.LocalRanks = cloneVectors(r.LocalRanks)
	}
	if r.Dist != nil {
		stats := *r.Dist
		c.Dist = &stats
	}
	return c
}
