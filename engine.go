package lmmrank

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"lmmrank/internal/dist/coordinator"
	"lmmrank/internal/lmm"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
)

// Query is the unified serving request every Engine answers: one struct
// covers uniform rankings, site- and document-layer personalization
// (§3.2's two-layer personalization), top-k tables and the three-layer
// domain → site → page model. The zero value asks for the standard
// uniform two-layer ranking with default damping, tolerance and
// iteration budget; a query that spells a default out (Damping 0.85,
// Tol 1e-10, MaxIter 1000) is served as if it had left it zero.
type Query struct {
	// Tenant names the caller for admission accounting: with
	// EngineOptions.TenantQuota (or DistConfig's) set, each
	// distinct Tenant gets its own concurrency quota beneath the
	// engine-wide cap, so one flooding tenant exhausts only its own
	// slots. The empty string is itself a tenant (the "anonymous" one).
	// Tenant never affects the ranking answer and is excluded from the
	// coalescing fingerprint — queries from different tenants may share
	// one computation; each still receives its own copy.
	Tenant string
	// Damping is the PageRank damping factor / gatekeeper α. Zero is a
	// sentinel selecting the default 0.85 — an explicit damping of
	// exactly 0 cannot be requested, tiny positive values are honored.
	// Any other value outside (0, 1), NaN included, is ErrUnsupportedQuery.
	Damping float64
	// Tol and MaxIter bound every solve's L1 change and its sweeps;
	// 0 = package defaults. A NaN or negative Tol and a
	// negative MaxIter are ErrUnsupportedQuery.
	Tol     float64
	MaxIter int
	// SitePersonalization biases the site layer: the teleport
	// distribution over sites (length NumSites; nil = uniform).
	// Incompatible with ThreeLayer, which replaces the site layer.
	SitePersonalization Vector
	// DocPersonalization biases individual sites' document layers:
	// per-site teleport vectors in local-index order; missing sites use
	// uniform. Served by LocalEngine only — DistEngine rejects it with
	// ErrUnsupportedQuery (per-site teleports are not part of the wire
	// protocol).
	DocPersonalization map[SiteID]Vector
	// ThreeLayer selects the three-layer (domain → site → page) model;
	// DomainOf groups sites into domains (nil = the registrable-domain
	// default). The Result gains Domains, DomainRank, DomainOfSite and
	// SiteEntry, and its SiteRank holds the per-site composition
	// weights DomainRank·SiteEntry. A query with a non-nil DomainOf is
	// never coalesced (function identity is not fingerprintable).
	ThreeLayer bool
	DomainOf   func(siteName string) string
	// TopK, when positive, fills Result.Top with the k best documents
	// and their URLs in descending score order.
	TopK int
	// WantLocalRanks asks for Result.LocalRanks (each site's local
	// DocRank). Serving clients rarely need them; leaving this false
	// keeps the per-query copying to the global vectors.
	WantLocalRanks bool
}

// Result is a ranking answer. Every slice is freshly allocated and
// caller-owned: mutate it, retain it across queries, hand it to another
// goroutine — nothing aliases engine internals. (Scratch aliasing is an
// internal/ concern; it stops at this boundary.)
type Result struct {
	// DocRank is the global ranking per DocID, a probability
	// distribution.
	DocRank Vector
	// SiteRank is the site-layer distribution πS per SiteID — or, for a
	// ThreeLayer query, the per-site composition weights
	// DomainRank(dom(s))·SiteEntry(s).
	SiteRank Vector
	// Domains, DomainRank, DomainOfSite and SiteEntry carry the upper
	// layers of a ThreeLayer query (nil otherwise): the distinct domain
	// names in first-seen order, the top-layer distribution per domain
	// index, each site's domain index, and each site's entry
	// probability within its domain.
	Domains      []string
	DomainRank   Vector
	DomainOfSite []int
	SiteEntry    Vector
	// LocalRanks holds each site's local DocRank in local-index order;
	// filled only when Query.WantLocalRanks was set.
	LocalRanks []Vector
	// Top is the TopK table (nil when Query.TopK <= 0).
	Top []DocScore
	// SiteIterations and LocalIterations record solver work: the site
	// layer's in-place sweeps and each site's local sweeps.
	// SiteIterations is the query's own site solve: 0 for an answer
	// composed with a snapshot's πS. The DistEngine answer that filled
	// its snapshot adds the fill's solve of πS.
	SiteIterations  int
	LocalIterations []int
	// Dist carries the transport/cache statistics of the fleet run a
	// DistEngine query made: the snapshot's fill if it made that (its
	// LocalIterations are then the fill's), else its own run. One built
	// from the snapshot's solutions made none and reads zero transport
	// with every local DocRank reused. Nil for LocalEngine results.
	Dist *DistStats
}

// GraphDelta describes one batch of graph churn for Engine.Update: the
// mutation itself.
//
// Apply receives a copy-on-write working clone of the served graph — not
// the serving snapshot itself — and must not be nil. The engine applies
// the mutation to the clone, rebuilds off to the side and publishes the
// result atomically, so in-flight queries keep reading the old,
// untouched graph; if Apply (or the rebuild) fails, the clone is
// discarded and the engine is exactly as before — a failed Update is a
// no-op. Mutate only the *dg passed in; a captured outer pointer still
// names the old serving graph. The clone shares its per-document columns
// and site rosters with the serving graph under an append-only contract:
// add links, append to Sites, and add documents with AddDoc, but do not
// overwrite, reorder or truncate what is already there. After a
// successful Update, re-fetch the serving graph with DocGraph().
//
// The engine derives which sites the clone changed from the clone
// itself (DocGraph.ChangedSince), and the layered decomposition makes
// that set the whole cost model: only those sites' SiteGraph rows,
// transition matrices and solvers are rebuilt (and, distributedly,
// re-shipped), everything else is reused.
type GraphDelta struct {
	// Deprecated: ignored. The engine derives the changed sites from
	// the clone Apply wrote.
	ChangedSites []SiteID
	Apply        func(dg *DocGraph) error
}

// Engine is the serving surface of the layered ranking model: one
// interface over the in-process and distributed backends. Rank answers
// one Query; implementations are safe for concurrent use, results are
// caller-owned, and a cancelled or expired context aborts the query
// mid-computation — between solver sweeps locally, between wire
// exchanges (or by interrupting a blocked one) distributedly —
// returning ctx.Err().
//
// Update makes graph churn a first-class serving operation: it applies
// a GraphDelta to a copy-on-write clone of the graph, rebuilds only the
// precomputed structure of the sites the clone wrote, warm-starts whatever the
// backend can (local solves seed from the previous solution;
// distributed runs re-ship only the changed shards), and publishes the
// result as a new immutable snapshot with one atomic pointer store.
// Rank never waits for Update and Update never waits for Rank:
// in-flight queries — however slow — complete on the snapshot they
// started on, bit-identical to an uncontended run, and the first Rank
// after Update sees the new graph. Mutating the graph *without* Update
// leaves the engine stale: queries and Updates fail with ErrGraphMutated
// (wrapped) instead of silently serving stale rankings.
type Engine interface {
	Rank(ctx context.Context, q Query) (*Result, error)
	Update(ctx context.Context, delta GraphDelta) error
}

// ErrUnsupportedQuery marks queries a backend cannot serve (e.g.
// document-layer personalization on the distributed engine). Check with
// errors.Is.
var ErrUnsupportedQuery = errors.New("lmmrank: unsupported query")

// EngineOptions fixes the graph-derivation, execution and admission
// choices an engine precomputes.
type EngineOptions struct {
	// SiteGraph controls SiteLink aggregation (§3.1), baked into the
	// precomputed structure.
	SiteGraph SiteGraphOptions
	// Parallelism caps the local-DocRank fan-out of each query that
	// solves the sites and of each Update's refresh solve, and the sort of
	// the top-k index by a snapshot's first TopK query and its patch by an
	// Update (0 = GOMAXPROCS). Concurrent serving under load usually wants
	// 1 — the cores are already busy answering distinct queries — while a
	// single caller wants the default. Construction is not capped: nothing
	// is served yet, so it runs its first solve on every core. Each site
	// solve and each site's sort is serial, so the fan-out never changes
	// an answer's bits.
	Parallelism int
	// MaxInFlight caps concurrently admitted Rank calls (0 = no cap).
	// Excess calls queue for a slot, honoring ctx cancellation — unless
	// RejectOverload is set, in which case they fail fast with
	// ErrOverloaded for the caller to shed or retry elsewhere.
	MaxInFlight    int
	RejectOverload bool
	// TenantQuota caps each Query.Tenant's concurrently admitted Rank
	// calls (0 = no keyed admission). The tenant slot is taken before
	// the engine-wide slot, so a tenant can never hold more than
	// TenantQuota of the MaxInFlight budget: size MaxInFlight ≥ the sum
	// of active tenants' quotas (or leave it 0) and no tenant can starve
	// another. Over-quota calls queue or fail fast per RejectOverload,
	// exactly as at the engine-wide gate.
	TenantQuota int
	// Coalesce merges concurrent identical queries: when several Rank
	// calls with the same fingerprint overlap, one computes and the
	// rest wait for it, each receiving its own caller-owned copy.
	// Queries with a custom DomainOf are never coalesced.
	Coalesce bool
	// CoalesceTol widens Coalesce from identical to *similar* queries:
	// personalization vectors are L1-normalized and bucketed to a grid
	// of step CoalesceTol/len(v), so two queries landing in the same
	// buckets share one solve. Personalized PageRank is 1-Lipschitz in
	// the L1 norm of its teleport vector, so every coalesced caller's
	// answer is within CoalesceTol (plus solver tolerance) of its exact
	// one. 0 (the default) coalesces only bit-identical vectors.
	CoalesceTol float64
	// TopKIndex has no effect: every snapshot of either engine has a
	// top-k index over its solutions, sorted by the first TopK query it
	// serves from them and patched by each Update after that (see
	// LocalEngine).
	//
	// Deprecated: ignored.
	TopKIndex bool
}

// validate rejects query-shape combinations no backend serves, keeping
// the two engines' contracts identical. Malformed parameters and vectors
// are rejected here, at the serving boundary, rather than left to the
// solvers: a NaN would otherwise surface as a solver failure deep inside
// the run, a NaN damping or tolerance only after every sweep it allows.
func (q Query) validate() error {
	if !(q.Damping == 0 || q.Damping > 0 && q.Damping < 1) || !(q.Tol >= 0) || q.MaxIter < 0 {
		return fmt.Errorf("%w: Damping %g, Tol %g or MaxIter %d out of range (Damping 0 or in (0, 1), Tol and MaxIter ≥ 0)", ErrUnsupportedQuery, q.Damping, q.Tol, q.MaxIter)
	}
	if q.ThreeLayer && q.SitePersonalization != nil {
		return fmt.Errorf("%w: ThreeLayer replaces the site layer and cannot combine with SitePersonalization", ErrUnsupportedQuery)
	}
	if q.SitePersonalization != nil {
		if err := teleportable(q.SitePersonalization); err != nil {
			return fmt.Errorf("%w: SitePersonalization %s", ErrUnsupportedQuery, err)
		}
	}
	for site, v := range q.DocPersonalization {
		if err := teleportable(v); err != nil {
			return fmt.Errorf("%w: DocPersonalization[%d] %s", ErrUnsupportedQuery, site, err)
		}
	}
	return nil
}

// zeroDefaults returns q with a Damping, Tol or MaxIter that names its
// default value replaced by the zero that selects it. The front applies
// it once, right after validate, so a query that spells the defaults out
// is the default query everywhere behind it: composed from the snapshot
// (fromSnapshot), coalesced with Query{} (fingerprint) and weighed by πS
// itself (weigh).
func (q Query) zeroDefaults() Query {
	if q.Damping == pagerank.DefaultDamping {
		q.Damping = 0
	}
	if q.Tol == matrix.DefaultTol {
		q.Tol = 0
	}
	if q.MaxIter == matrix.DefaultMaxIter {
		q.MaxIter = 0
	}
	return q
}

// fits refuses vectors not shaped like dg, the graph the query is served
// on — which a solver would refuse with an error of its own, or, for a
// site dg lacks, drop unseen.
func (q Query) fits(dg *DocGraph) error {
	ns := dg.NumSites()
	if q.SitePersonalization != nil && len(q.SitePersonalization) != ns {
		return fmt.Errorf("%w: SitePersonalization has %d entries for %d sites", ErrUnsupportedQuery, len(q.SitePersonalization), ns)
	}
	for site, v := range q.DocPersonalization {
		if site < 0 || int(site) >= ns || len(v) != dg.SiteSize(site) {
			return fmt.Errorf("%w: DocPersonalization[%d] has %d entries, not one per document of a site of the %d", ErrUnsupportedQuery, site, len(v), ns)
		}
	}
	return nil
}

// teleportable reports whether v can serve as a teleport bias: every
// entry finite and nonnegative, and the whole a probability distribution
// to within 1e-6 — the solvers do not normalize (pagerank refuses what
// fails IsDistribution(1e-6)), and a vector refused only there would
// already have been admitted and, at CoalesceTol > 0, could lead a
// flight of well-formed proportional queries and fail them all.
func teleportable(v Vector) error {
	var mass float64
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("entry %d is not finite", i)
		}
		if x < 0 {
			return fmt.Errorf("entry %d is negative", i)
		}
		mass += x
	}
	if math.Abs(mass-1) > 1e-6 {
		return fmt.Errorf("sums to %g, not 1", mass)
	}
	return nil
}

// webConfig maps a Query onto the internal pipeline configuration.
func (q Query) webConfig(ctx context.Context, parallelism int) lmm.WebConfig {
	return lmm.WebConfig{
		Damping:             q.Damping,
		Tol:                 q.Tol,
		MaxIter:             q.MaxIter,
		SitePersonalization: q.SitePersonalization,
		DocPersonalization:  q.DocPersonalization,
		Parallelism:         parallelism,
		Ctx:                 ctx,
	}
}

// solutions are a snapshot's default-parameter answers: the site layer πS
// and every site's local DocRank, which every query at the defaults is
// composed from and every other query's solves start from, and the top-k
// index over the locals, which the first query that reads it builds. A
// clean site's local vector and its index order are shared by pointer
// with the previous snapshot.
type solutions struct {
	site   Vector
	locals []Vector
	index  atomic.Pointer[topkIndex]
	build  sync.Once
}

// topk returns the index over sol's locals, sorting it across workers
// goroutines (0 = GOMAXPROCS) if no query or fill made it yet: concurrent
// first callers build one and share it.
func (sol *solutions) topk(workers int) *topkIndex {
	sol.build.Do(func() {
		if sol.index.Load() == nil {
			sol.index.Store((*topkIndex)(nil).patch(sol.locals, workers))
		}
	})
	return sol.index.Load()
}

// source is where a snapshot's local DocRanks come from — the one thing
// the Partition Theorem lets the two engines differ in: the Ranker's own
// solvers (a nil coord), which fill a snapshot before it is published, or
// coordinator runs over a fleet, which fill it on the first query that
// reads its solutions. The site layer is the engine's on either.
type source struct {
	coord *coordinator.Coordinator
	cfg   coordinator.Config
}

// fleetFill is what a fleet fill cost, which the answer that made it
// reports: the coordinator run, and the sweeps of the solve of πS after it.
type fleetFill struct {
	*coordinator.Result
	siteIters int
}

// fill solves snap's solutions at the default parameters, started from
// snap.from with the changed sites solved afresh, across workers
// goroutines; made is what the fleet's did (nil in process). In process
// it is a RankRefresh, warm-started where the shapes survived (a changed
// site whose roster grew starts cold — seeds are shape-checked hints),
// which hands a clean site's previous vector back verbatim (a warm
// re-polish would drift it by an ulp, and it is converged already): the
// solutions share it by pointer, so only the solved sites' vectors are
// cloned out of the Ranker's scratch, and the chains they were solved on
// are dropped with its clone. On a fleet it is one uniform run that asks
// the workers for only the sites whose local DocRank snap.from does not
// hold (prime left it the clean sites' alone), and one RankSites on rk,
// the filling query's own Ranker, started from snap.from's πS: the site
// solve a RankRefresh makes.
func (src *source) fill(ctx context.Context, snap *snapshot, rk *lmm.Ranker, changed []SiteID, workers int) (*solutions, *fleetFill, error) {
	from := snap.from
	if src.coord == nil {
		wr, err := snap.base.Share().RankRefresh(changed, lmm.WebConfig{Parallelism: workers, SiteStart: from.site, LocalStarts: from.locals, Ctx: ctx})
		if err != nil {
			return nil, nil, normalizeCtxErr(ctx, err)
		}
		sol := &solutions{site: wr.SiteRank.Clone(), locals: make([]Vector, len(wr.LocalRanks))}
		for s, v := range wr.LocalRanks {
			if s >= len(from.locals) || !sameVector(v, from.locals[s]) {
				v = v.Clone()
			}
			sol.locals[s] = v
		}
		return sol, nil, nil
	}
	dres, err := src.run(ctx, snap, Query{}, from.locals)
	if err != nil {
		return nil, nil, err
	}
	site, iters, err := rk.RankSites(lmm.WebConfig{SiteStart: from.site, Ctx: ctx})
	if err != nil {
		return nil, nil, normalizeCtxErr(ctx, err)
	}
	// site aliases rk's scratch, which goes back to the free list when the
	// query is answered.
	return &solutions{site: site.Clone(), locals: dres.LocalRanks}, &fleetFill{dres, iters}, nil
}

// solve gives q its local DocRanks, their sweeps (nil: none ran) and the
// fleet's account (nil in process). A query served from sol gets sol's
// locals, and on a fleet sends nothing. Any other query (sol nil) is a
// solve of its own: in process every site on rk, started from the
// snapshot's locals; on a fleet a run from nothing but the digests.
func (src *source) solve(ctx context.Context, snap *snapshot, rk *lmm.Ranker, q Query, sol *solutions, workers int) ([]Vector, []int, *DistStats, error) {
	switch {
	case src.coord == nil && sol == nil:
		cfg := q.webConfig(ctx, workers)
		cfg.LocalStarts = snap.sol.Load().locals
		locals, iters, err := rk.RankLocals(cfg)
		return locals, iters, nil, normalizeCtxErr(ctx, err)
	case src.coord == nil:
		return sol.locals, nil, nil, nil
	case sol != nil:
		return sol.locals, nil, &DistStats{LocalRanksReused: len(sol.locals)}, nil
	}
	dres, err := src.run(ctx, snap, q, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	return dres.LocalRanks, dres.LocalIterations, &dres.Stats, nil
}

// run is one coordinator run at q's Damping, Tol and MaxIter, started
// from the local DocRanks locals holds and the snapshot's shard digests,
// which it records if the run learned them.
func (src *source) run(ctx context.Context, snap *snapshot, q Query, locals []Vector) (*coordinator.Result, error) {
	cfg := src.cfg
	cfg.Damping, cfg.Tol, cfg.MaxIter = q.Damping, q.Tol, q.MaxIter
	warm := coordinator.Warm{Locals: locals, Digests: snap.digests.Load()}
	dres, err := src.coord.RankPreparedCtx(ctx, snap.base, cfg, warm)
	if err == nil && dres.Digests != warm.Digests {
		snap.digests.CompareAndSwap(warm.Digests, dres.Digests)
	}
	return dres, err
}

// rebuild is Update's half behind the front: the next snapshot over dg,
// a clone of cur's graph, with the structure of the sites it changed
// rebuilt, the clean sites' shard digests carried, and started from cur's
// solutions — or, if cur was never filled, from where its fill would have
// started.
func (e *server) rebuild(ctx context.Context, cur *snapshot, dg *DocGraph) (*snapshot, error) {
	changed := dg.ChangedSince(cur.dg)
	base, err := cur.base.RebuildOn(dg, nil)
	if err != nil {
		return nil, err
	}
	next := &snapshot{dg: dg, base: base, from: cmp.Or(cur.sol.Load(), cur.from)}
	next.digests.Store(cur.digests.Load().Drop(changed))
	return next, e.prime(ctx, next, changed, e.parallelism)
}

// prime readies snap to be published: its free list, and its solutions
// if the source fills on publish — then it drops what they started from
// (on an error, snap is never published). A fleet fills later, asking the
// workers for the local DocRanks from lacks, so of from it keeps only what
// that fill reuses: πS, the clean sites' local DocRanks (a changed site's
// is nil) and the index to patch.
func (e *server) prime(ctx context.Context, snap *snapshot, changed []SiteID, workers int) error {
	snap.pool = newRankerPool(snap.base)
	if e.src.coord == nil {
		_, _, err := e.filled(ctx, snap, nil, changed, workers)
		snap.from = nil
		return err
	}
	seed := &solutions{site: snap.from.site, locals: make([]Vector, snap.base.NumSites())}
	copy(seed.locals, snap.from.locals)
	for _, s := range changed {
		seed.locals[s] = nil
	}
	seed.index.Store(snap.from.index.Load())
	snap.from = seed
	return nil
}

// filled returns snap's solutions, filling them first if it has none:
// from snap.from, the changed sites solved afresh (πS on rk, on a fleet),
// with the index snap.from had patched over them (only the sites whose
// local DocRank is new are sorted again), published by compare-and-swap
// (a loser serves the winner's). made is the fleet fill if this call made
// it.
func (e *server) filled(ctx context.Context, snap *snapshot, rk *lmm.Ranker, changed []SiteID, workers int) (*solutions, *fleetFill, error) {
	if sol := snap.sol.Load(); sol != nil {
		return sol, nil, nil
	}
	sol, made, err := e.src.fill(ctx, snap, rk, changed, workers)
	if err != nil {
		return nil, nil, err
	}
	if ix := snap.from.index.Load(); ix != nil {
		sol.index.Store(ix.patch(sol.locals, workers))
	}
	snap.sol.CompareAndSwap(nil, sol)
	return snap.sol.Load(), made, nil
}

// solve is Rank's half behind the front: a query fromSnapshot takes its
// locals from the snapshot's solutions and its Top table from their
// index, any other's come from the source; its site weighting is weighed
// over the solutions. The answer of the query that made a fleet fill
// reports the fill's sweeps and run.
func (e *server) solve(ctx context.Context, snap *snapshot, q Query) (*Result, error) {
	rk := snap.pool.get()
	defer snap.pool.put(rk)
	var sol *solutions
	var made *fleetFill
	if q.fromSnapshot() {
		var err error
		if sol, made, err = e.filled(ctx, snap, rk, nil, e.parallelism); err != nil {
			return nil, err
		}
	}
	locals, iters, stats, err := e.src.solve(ctx, snap, rk, q, sol, e.parallelism)
	if err != nil {
		return nil, err
	}
	site, err := snap.weigh(ctx, rk, q)
	if err != nil {
		return nil, err
	}
	if made != nil {
		fill := made.Stats
		iters, stats = made.LocalIterations, &fill
		site.iters += made.siteIters
	}
	res := answer(snap.dg, q, site, locals, iters)
	res.Dist = stats
	if sol != nil && q.TopK > 0 {
		e.stats.topkIndex.Add(1)
		res.Top, _ = sol.topk(e.parallelism).top(snap.dg, site.weights, q.TopK)
	}
	return res, nil
}

// LocalEngine serves queries from one process: an lmm.Ranker core
// (SiteGraph and roster indexes) precomputed once at construction, the
// solutions solved on it, and a free list of scratch-private Rankers.
// Concurrent goroutines serve in parallel — each Rank loads the current
// snapshot and answers from it, borrowing a pooled Ranker for whatever
// it has to solve.
//
// A snapshot is its solutions: the site layer πS and every site's local
// DocRank at the default Damping, Tol and MaxIter. By the Partition
// Theorem a local DocRank does not depend on the query, so every query
// at those defaults without a DocPersonalization is served from them:
// its DocRank is the kept local ranks composed under the query's site
// weights — πS itself, one site-layer solve started from πS for a
// SitePersonalization, or the upper two layers of a ThreeLayer query —
// no document-layer sweep runs, and its Top table is a threshold merge
// over the snapshot's top-k index, which the first such TopK query
// sorts. Such a snapshot keeps no per-site chain: each intra-site link
// is held once, in the graph. Any other query solves every site,
// warm-started from the snapshot's solutions, on chains that the first
// such query builds and the engine keeps from then on.
//
// Serving is lock-free multi-version (see Engine): Update builds the next
// snapshot off to the side, rebuilding only the changed sites' SiteGraph
// rows and structure, and a refresh solve — warm-started from the
// previous solutions, a clean site's local DocRank carried verbatim —
// gives it its solutions, which agree with a cold rebuild's to solver
// tolerance (pinned < 1e-9 in the tests); an index the previous
// snapshot had is patched, re-sorting only the sites whose local DocRank
// is new. MaxInFlight/RejectOverload add an admission cap in front and
// Coalesce folds concurrent identical queries into one computation (see
// EngineOptions).
type LocalEngine struct {
	server
}

var _ Engine = (*LocalEngine)(nil)

// NewLocalEngine validates dg and precomputes the serving structure:
// the SiteGraph, and the first snapshot's solutions, solved once on every
// core on per-site chains it then drops. Beside the graph a snapshot
// keeps the solutions, not the links again; the first query that solves
// the sites builds the chains, and the engine keeps them from then on.
// The graph is captured by reference; mutate it only through Update (or
// build a new engine) — a mutation outside Update turns every later
// query into ErrGraphMutated. After an Apply-path Update the engine
// serves an evolved copy of the graph; read it back with DocGraph().
func NewLocalEngine(dg *DocGraph, opts EngineOptions) (*LocalEngine, error) {
	e := &LocalEngine{server{parallelism: opts.Parallelism, coalesce: opts.Coalesce, coalesceTol: opts.CoalesceTol,
		admit: newAdmitGate(opts.MaxInFlight, opts.TenantQuota, opts.RejectOverload)}}
	if err := e.serve(dg, opts.SiteGraph); err != nil {
		return nil, err
	}
	return e, nil
}

// rankerPool is a snapshot's free list of scratch-private Share() clones
// of its Ranker: a query takes an idle one, or a new clone when
// none is idle, and gives it back. At most GOMAXPROCS (as of the
// snapshot's creation) stay idle, and they stay until the snapshot goes:
// unlike a sync.Pool's, a collection does not drop them, so a steady
// load never re-allocates a clone's query scratch. The pool lives inside
// one snapshot, so stale scratch can never serve a rebuilt core.
type rankerPool struct {
	share func() *lmm.Ranker // a new clone: the snapshot Ranker's Share
	idle  chan *lmm.Ranker
}

func newRankerPool(base *lmm.Ranker) *rankerPool {
	return &rankerPool{share: base.Share, idle: make(chan *lmm.Ranker, runtime.GOMAXPROCS(0))}
}

// get takes an idle clone, or makes one.
func (p *rankerPool) get() *lmm.Ranker {
	select {
	case rk := <-p.idle:
		return rk
	default:
		return p.share()
	}
}

// put gives a clone back; past the idle cap it is dropped.
func (p *rankerPool) put(rk *lmm.Ranker) {
	select {
	case p.idle <- rk:
	default:
	}
}

// fromSnapshot reports whether q is answered from the snapshot's
// default-parameter solutions: the default damping, tolerance and
// iteration budget and no document-layer personalization — exactly the
// queries whose document layers are those solutions. Whatever else q
// asks touches only the small layers above them: the Partition Theorem
// composes DocRank as siteWeight·localRank under any site weighting,
// uniform, site-personalized or three-layer.
func (q Query) fromSnapshot() bool {
	return q.DocPersonalization == nil && q.Damping == 0 && q.Tol == 0 && q.MaxIter == 0
}

// siteLayer is a query's site weighting, all an answer adds to the local
// DocRanks (Partition Theorem): the weights (caller-owned; they become
// Result.SiteRank), the sweeps that solved them, and for a
// ThreeLayer query the upper layers they are DomainRank·SiteEntry of.
type siteLayer struct {
	weights Vector
	iters   int
	three   *lmm.ThreeLayerWeights
}

// weigh returns q's site weighting over snap's solutions: the three-layer
// weights, πS itself for a query at the defaults without a
// SitePersonalization, or else a site-layer solve on rk started from πS
// (a hint) — from uniform on a fleet snapshot not filled yet.
func (snap *snapshot) weigh(ctx context.Context, rk *lmm.Ranker, q Query) (siteLayer, error) {
	cfg := q.webConfig(ctx, 0) // Parallelism is the locals' fan-out: none here
	switch {
	case q.ThreeLayer:
		// The upper layers are freshly allocated per query — already
		// caller-owned.
		tl, err := snap.base.ThreeLayerWeights(q.DomainOf, cfg)
		if err != nil {
			return siteLayer{}, normalizeCtxErr(ctx, err)
		}
		return siteLayer{weights: tl.SiteWeights, three: tl}, nil
	case q.fromSnapshot() && q.SitePersonalization == nil:
		return siteLayer{weights: snap.sol.Load().site.Clone()}, nil
	}
	if sol := snap.sol.Load(); sol != nil {
		cfg.SiteStart = sol.site
	}
	sr, iters, err := rk.RankSites(cfg)
	if err != nil {
		return siteLayer{}, normalizeCtxErr(ctx, err)
	}
	// sr aliases rk's scratch, which goes back to the free list when the
	// query is answered.
	return siteLayer{weights: sr.Clone(), iters: iters}, nil
}

// answer builds a Result, the one place either engine does: site's
// weights composed with the local DocRanks, whose sweeps localIters
// counts (nil: none ran).
func answer(dg *DocGraph, q Query, site siteLayer, locals []Vector, localIters []int) *Result {
	res := &Result{
		DocRank:         lmm.ComposeDocRank(dg, site.weights, locals),
		SiteRank:        site.weights,
		SiteIterations:  site.iters,
		LocalIterations: make([]int, len(dg.Sites)),
	}
	copy(res.LocalIterations, localIters)
	if tl := site.three; tl != nil {
		res.Domains, res.DomainRank, res.DomainOfSite, res.SiteEntry = tl.Domains, tl.DomainRank, tl.DomainOfSite, tl.SiteEntry
	}
	if q.WantLocalRanks {
		res.LocalRanks = cloneVectors(locals)
	}
	return res
}

// cloneVectors deep-copies a slice of score vectors.
func cloneVectors(vs []Vector) []Vector {
	out := make([]Vector, len(vs))
	for i, v := range vs {
		out[i] = v.Clone()
	}
	return out
}

// normalizeCtxErr maps a cancelled query's failure to the context's own
// error — the Engine contract — but only when the failure actually is a
// context abort somewhere down its chain. A query that died for its own
// reason (say ErrGraphMutated) keeps that error even if the context has
// since expired: a deadline must not mask a real fault.
func normalizeCtxErr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// DistEngine serves the same queries from a distributed fleet: local
// DocRanks run on the workers (through the coordinator's shard caches
// and loss recovery), the small site layer is solved in the engine, on
// the Ranker of the query that needs it, and the answer is built from
// those solutions as on a LocalEngine, with transport statistics
// attached. Rank
// calls are safe for concurrent use — the coordinator serializes runs —
// but do not overlap on the wire; for query-level concurrency put a
// LocalEngine replica next to the coordinator instead, or turn on
// Coalesce so identical concurrent queries share one wire run.
//
// Serving state is an atomic snapshot exactly as on LocalEngine, and a
// snapshot is its solutions there too, but the fleet solves them: the
// first query at the default Damping/Tol/MaxIter makes one uniform run
// for every site's local DocRank and solves πS after it, and every such
// query, that one included, is composed from them and sends nothing, and
// takes its Top table from their top-k index, as on a LocalEngine. A
// query with a Damping, Tol or MaxIter of its own is a run of its own for
// the local DocRanks; its site layer, like every site weighting, is
// weighed over the snapshot's solutions as on a LocalEngine, so it gets
// a LocalEngine's bits.
//
// Every run declares shards by the digests the snapshot keeps
// (coordinator.Digests; no payload) without hashing. Update sends
// nothing: it rebuilds the Ranker incrementally and carries the clean
// sites' digests and local DocRanks, so the next run re-hashes and,
// through the workers' digest caches, re-ships only the changed shards
// and asks for only the changed sites' local DocRanks: a 1-site edit on
// an N-site web moves ~1/N of a cold load's bytes (Result.Dist accounts
// for it per run). A failed Apply re-ships nothing.
type DistEngine struct {
	server
}

var _ Engine = (*DistEngine)(nil)

// DistConfig configures a DistEngine: the retry policy and placement
// every fleet run of the engine takes, and the serving knobs
// EngineOptions also carries. A run's Damping, Tol and MaxIter are its
// Query's.
type DistConfig struct {
	// Retry controls mid-run fault tolerance; the zero value disables
	// recovery.
	Retry DistRetryPolicy
	// Assignment, when non-nil, pins the site→shard placement instead of
	// the weighted-LPT default: Assignment[s] is the abstract shard of
	// site s, and shard j maps onto the j-th live worker in ascending
	// fleet order. A pin that does not fit falls back to LPT. The
	// Partition Theorem makes every placement rank-identical.
	Assignment []int
	// MaxInFlight, RejectOverload, TenantQuota, Coalesce and CoalesceTol
	// are EngineOptions' serving knobs: admission caps (engine-wide and
	// per Query.Tenant), fail-fast over them, and the merging of
	// concurrent identical — or, within CoalesceTol, similar — queries
	// into one computation, on a fleet one wire run.
	MaxInFlight    int
	RejectOverload bool
	TenantQuota    int
	Coalesce       bool
	CoalesceTol    float64
	// Deprecated: ignored. The site layer is solved in the engine.
	SiteRank SiteRankMode
}

// NewDistEngine builds a distributed serving engine over a running
// cluster: the layered structure is precomputed for the graph (structure
// only — the fleet solves the local DocRanks, on the first query;
// construction sends nothing) and every Rank reuses it, its SiteGraph
// aggregated with the default SiteGraphOptions. Mutate the graph only
// through Update (or build a new engine); a mutation outside Update
// turns every later query into ErrGraphMutated.
func NewDistEngine(cl *Cluster, dg *DocGraph, cfg DistConfig) (*DistEngine, error) {
	run := coordinator.Config{Retry: cfg.Retry, Assignment: cfg.Assignment}
	e := &DistEngine{server{src: source{coord: cl.Coord, cfg: run}, coalesce: cfg.Coalesce, coalesceTol: cfg.CoalesceTol,
		admit: newAdmitGate(cfg.MaxInFlight, cfg.TenantQuota, cfg.RejectOverload)}}
	if err := e.serve(dg, SiteGraphOptions{}); err != nil {
		return nil, err
	}
	return e, nil
}

// Rank answers one query against the fleet. The context's deadline
// propagates into every wire exchange and a cancellation aborts the
// in-flight run, returning ctx.Err(). Admission and coalescing
// follow the cfg knobs (see NewDistEngine).
func (e *DistEngine) Rank(ctx context.Context, q Query) (*Result, error) {
	if q.DocPersonalization != nil {
		return nil, fmt.Errorf("%w: document-layer personalization is not part of the distributed wire protocol; use LocalEngine", ErrUnsupportedQuery)
	}
	return e.server.Rank(ctx, q)
}
