package lmmrank

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"lmmrank/internal/dist/coordinator"
	"lmmrank/internal/lmm"
)

// Query is the unified serving request every Engine answers: one struct
// covers uniform rankings, site- and document-layer personalization
// (§3.2's two-layer personalization), top-k tables and the three-layer
// domain → site → page model. The zero value asks for the standard
// uniform two-layer ranking with default damping, tolerance and
// iteration budget.
type Query struct {
	// Tenant names the caller for admission accounting: with
	// EngineOptions.TenantQuota (or the DistConfig equivalent) set, each
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
	// Tol and MaxIter bound every solve's L1 change and its sweeps (or
	// fleet rounds); 0 = package defaults. A NaN or negative Tol and a
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
	// layer's in-place sweeps (or distributed point-Jacobi rounds) and each
	// site's local sweeps. SiteIterations is the query's own site solve:
	// 0 for an answer composed with a snapshot's πS.
	SiteIterations  int
	LocalIterations []int
	// Dist carries the transport/cache statistics of the fleet run a
	// DistEngine query made: the snapshot's fill if it made that (its
	// LocalIterations are then the fill's), else its own run. One built
	// from the snapshot's solutions made none and reads zero transport
	// with every local DocRank reused. Nil for LocalEngine results.
	Dist *DistStats
}

// GraphDelta describes one batch of graph churn for Engine.Update: which
// sites' content changed, and (optionally) the mutation itself.
//
// ChangedSites must list every site whose pages or links changed —
// including links *from* its documents to other sites' documents; sites
// appended beyond the previous roster are implicitly changed. The
// layered decomposition makes this list the whole cost model: only the
// listed sites' SiteGraph rows, transition matrices and solvers are
// rebuilt (and, distributedly, re-shipped), everything else is reused —
// so a site left off the list keeps serving its old links.
//
// Apply, when non-nil, receives a copy-on-write working clone of the
// served graph — not the serving snapshot itself. The engine applies
// the mutation to the clone, rebuilds off to the side and publishes the
// result atomically, so in-flight queries keep reading the old,
// untouched graph; if Apply (or the rebuild) fails, the clone is
// discarded and the engine is exactly as before — a failed Update is a
// no-op. Mutate only the *dg passed in; a captured outer pointer still
// names the old serving graph. The clone shares its per-document columns
// and site rosters with the serving graph under an append-only contract:
// add links, append to Sites, and add documents with AddDoc, but do not
// overwrite, reorder or truncate what is already there. After a
// successful Apply-path Update, re-fetch the serving graph with
// DocGraph().
//
// With a nil Apply the caller has already mutated the serving graph in
// place; that is only safe when no query was in flight during the
// mutation (queries read the graph while serving), and the engine keeps
// serving that same (now rebuilt-in-place) graph.
type GraphDelta struct {
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
// changed sites' precomputed structure, warm-starts whatever the
// backend can (local solves seed from the previous solution;
// distributed runs re-ship only the changed shards), and publishes the
// result as a new immutable snapshot with one atomic pointer store.
// Rank never waits for Update and Update never waits for Rank:
// in-flight queries — however slow — complete on the snapshot they
// started on, bit-identical to an uncontended run, and the first Rank
// after Update sees the new graph. Mutating the graph *without* Update
// leaves the engine stale: queries fail with ErrGraphMutated (wrapped)
// instead of silently serving stale rankings.
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
	// solves the sites and of each Update's refresh solve (0 =
	// GOMAXPROCS). Concurrent serving under load usually wants 1 — the
	// cores are already busy answering distinct queries — while a single
	// caller wants the default. Construction is not capped: nothing is
	// served yet, so it runs its first solve (and, with TopKIndex, sorts
	// the index) on every core. Each site solve is serial, so the fan-out
	// never changes an answer's bits.
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
	// TopKIndex maintains a per-snapshot top-k index over the snapshot's
	// local solutions — each site's documents in score order, 4 bytes a
	// document beside the solutions themselves: it is sorted at
	// construction, on every core, and patched after every Update, under
	// the Parallelism cap (re-sorting only the sites whose solution is
	// new). A TopK query the snapshot serves from its solutions (see
	// LocalEngine) then takes its Top table from a threshold merge over
	// the index instead of a full re-rank of all documents; the table is
	// bit-identical to fully sorting the served DocRank.
	// LocalEngine only: DistConfig has no such knob.
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

// localState is a snapshot's solutions, the one snapshot shape both
// engines serve from: the Ranker built for exactly that graph, the pooled
// scratch-private clones, the default-parameter solutions solved on that
// graph — the site layer seedSite and every site's local DocRank
// seedLocals, which queries at the defaults are composed from and every
// other LocalEngine query's solves start from — and, with
// EngineOptions.TopKIndex, the maintained top-k index over seedLocals.
// Everything here but the pool is immutable; a clean site's local vector
// and its index order are shared by pointer with the previous snapshot.
type localState struct {
	base       *lmm.Ranker
	pool       *rankerPool
	seedSite   Vector
	seedLocals []Vector
	topk       *topkIndex
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
// and no document-layer sweep runs. Such a snapshot keeps no per-site
// chain: each intra-site link is held once, in the graph. Any other
// query solves every site, warm-started from the snapshot's solutions,
// on chains that the first such query builds and the engine keeps from
// then on.
//
// Serving is lock-free multi-version (see Engine): Update builds the next
// snapshot off to the side, rebuilding only the changed sites' SiteGraph
// rows and structure, and a refresh solve — warm-started from the
// previous solutions, a clean site's local DocRank carried verbatim —
// gives it its solutions, which agree with a cold rebuild's to solver
// tolerance (pinned < 1e-9 in the tests). MaxInFlight/RejectOverload add
// an admission cap in front and Coalesce folds concurrent identical
// queries into one computation (see EngineOptions).
type LocalEngine struct {
	server[*localState]
	parallelism int
	topkIndex   bool
}

var _ Engine = (*LocalEngine)(nil)

// NewLocalEngine validates dg and precomputes the serving structure:
// the SiteGraph, and the first snapshot's solutions, solved once on every
// core on per-site chains it then drops (and, with EngineOptions.TopKIndex,
// the index over them). Beside the graph a snapshot keeps the solutions,
// not the links again; the first query that solves the sites builds the
// chains, and the engine keeps them from then on. The graph is captured
// by reference; mutate it only through Update (or build a new engine) — a
// mutation outside Update turns every later query into ErrGraphMutated.
// After an Apply-path Update the engine serves an evolved copy of the
// graph; read it back with DocGraph().
func NewLocalEngine(dg *DocGraph, opts EngineOptions) (*LocalEngine, error) {
	rk, err := lmm.NewRanker(dg, lmm.RankerOptions{SiteGraph: opts.SiteGraph})
	if err != nil {
		return nil, err
	}
	e := &LocalEngine{parallelism: opts.Parallelism, topkIndex: opts.TopKIndex}
	// No query runs beside the first solve yet, so it takes every core.
	state, err := e.refresh(context.TODO(), rk, &localState{}, nil, 0)
	if err != nil {
		return nil, err
	}
	e.serve(e, newAdmitGate(opts.MaxInFlight, opts.TenantQuota, opts.RejectOverload), opts.Coalesce, opts.CoalesceTol, dg, state)
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
	mu    sync.Mutex
	idle  []*lmm.Ranker
}

func newRankerPool(base *lmm.Ranker) *rankerPool {
	return &rankerPool{share: base.Share, idle: make([]*lmm.Ranker, 0, runtime.GOMAXPROCS(0))}
}

// get takes an idle clone, or makes one outside the lock.
func (p *rankerPool) get() *lmm.Ranker {
	p.mu.Lock()
	n := len(p.idle)
	if n == 0 {
		p.mu.Unlock()
		return p.share()
	}
	rk := p.idle[n-1]
	p.idle[n-1] = nil
	p.idle = p.idle[:n-1]
	p.mu.Unlock()
	return rk
}

// put gives a clone back; past the idle cap it is dropped.
func (p *rankerPool) put(rk *lmm.Ranker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) < cap(p.idle) {
		p.idle = append(p.idle, rk)
	}
}

// rebuild is the local backend's half of Update: the changed sites'
// structure, then the refresh solve. A changed site's chain is built for
// the refresh, which drops it, and kept only by the next query that
// solves the sites.
func (e *LocalEngine) rebuild(ctx context.Context, cur *snapshot[*localState], dg *DocGraph, changed []SiteID) (*localState, error) {
	next, err := cur.state.base.RebuildOn(dg, changed)
	if err != nil {
		return nil, err
	}
	return e.refresh(ctx, next, cur.state, changed, e.parallelism)
}

// refresh solves rk at the default query parameters across workers
// goroutines (0 = GOMAXPROCS), warm-started from prev's solutions where
// the shapes survived (changed sites whose roster grew start cold
// automatically — seeds are shape-checked hints), and returns the state
// to publish. Clean sites keep their previous local solutions verbatim
// (a warm re-polish would drift them by an ulp, and they are converged
// already): RankRefresh hands back prev's very vector, and the next
// seeds share it by pointer, so only the solved sites' vectors are
// cloned out of the Ranker's scratch — and a TopKIndex engine re-sorts
// exactly those sites.
func (e *LocalEngine) refresh(ctx context.Context, rk *lmm.Ranker, prev *localState, changed []SiteID, workers int) (*localState, error) {
	cfg := lmm.WebConfig{
		Parallelism: workers,
		SiteStart:   prev.seedSite,
		LocalStarts: prev.seedLocals,
		Ctx:         ctx,
	}
	wr, err := rk.Share().RankRefresh(changed, cfg)
	if err != nil {
		return nil, normalizeCtxErr(ctx, err)
	}
	locals := make([]Vector, len(wr.LocalRanks))
	for s, v := range wr.LocalRanks {
		if s < len(prev.seedLocals) && sameVector(v, prev.seedLocals[s]) {
			locals[s] = v
		} else {
			locals[s] = v.Clone()
		}
	}
	state := &localState{
		base:       rk,
		pool:       newRankerPool(rk),
		seedSite:   wr.SiteRank.Clone(),
		seedLocals: locals,
	}
	if e.topkIndex {
		state.topk = prev.topk.patch(locals, workers)
	}
	return state, nil
}

// Rank answers one query. Safe for concurrent use; the result is
// caller-owned; a cancelled ctx aborts mid-iteration with ctx.Err().
// With MaxInFlight set the call first takes an admission slot (queueing
// or failing with ErrOverloaded per RejectOverload); with Coalesce set
// it may share one computation with concurrent identical queries.
func (e *LocalEngine) Rank(ctx context.Context, q Query) (*Result, error) {
	return e.rank(ctx, q)
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
// Result.SiteRank), the sweeps or rounds that solved them, and for a
// ThreeLayer query the upper layers they are DomainRank·SiteEntry of.
type siteLayer struct {
	weights Vector
	iters   int
	three   *lmm.ThreeLayerWeights
}

// weigh returns q's site weighting over st's solutions: the three-layer
// weights, πS itself for a query at the defaults without a
// SitePersonalization, or else a site-layer solve started from πS (a
// hint) on a pooled clone.
func (st *localState) weigh(ctx context.Context, q Query) (siteLayer, error) {
	cfg := q.webConfig(ctx, 0) // Parallelism is the locals' fan-out: none here
	switch {
	case q.ThreeLayer:
		// The upper layers are freshly allocated per query — already
		// caller-owned.
		tl, err := st.base.ThreeLayerWeights(q.DomainOf, cfg)
		if err != nil {
			return siteLayer{}, normalizeCtxErr(ctx, err)
		}
		return siteLayer{weights: tl.SiteWeights, three: tl}, nil
	case q.fromSnapshot() && q.SitePersonalization == nil:
		return siteLayer{weights: st.seedSite.Clone()}, nil
	}
	rk := st.pool.get()
	defer st.pool.put(rk)
	cfg.SiteStart = st.seedSite
	sr, iters, err := rk.RankSites(cfg)
	if err != nil {
		return siteLayer{}, normalizeCtxErr(ctx, err)
	}
	// sr aliases the pooled Ranker's scratch; privatize before the
	// deferred put can hand that scratch to another query.
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

// solve is the local backend's half of Rank: the query's site weighting
// over the snapshot's locals when the query allows — its Top table, with
// the index, a threshold merge over the per-site orders, bit-identical to
// sorting the DocRank — or over every site solved afresh on a pooled
// Ranker, started from the snapshot's locals.
func (e *LocalEngine) solve(ctx context.Context, snap *snapshot[*localState], q Query) (*Result, error) {
	st := snap.state
	site, err := st.weigh(ctx, q)
	if err != nil {
		return nil, err
	}
	if q.fromSnapshot() {
		res := answer(snap.dg, q, site, st.seedLocals, nil)
		if st.topk != nil && q.TopK > 0 {
			e.stats.topkIndex.Add(1)
			res.Top, _ = st.topk.top(snap.dg, site.weights, q.TopK)
		}
		return res, nil
	}
	rk := st.pool.get()
	defer st.pool.put(rk)
	cfg := q.webConfig(ctx, e.parallelism)
	cfg.LocalStarts = st.seedLocals
	locals, iters, err := rk.RankLocals(cfg)
	if err != nil {
		return nil, normalizeCtxErr(ctx, err)
	}
	return answer(snap.dg, q, site, locals, iters), nil
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

// distState is what a DistEngine snapshot holds beside the graph: its
// structural Ranker; the seed Update carried over (clean sites' local
// DocRanks by pointer, changed sites' nil, the old πS); fill, the
// solutions the first default-parameter query solves on the fleet from
// the seed and publishes by compare-and-swap (a loser serves the
// winner's); and digests, the graph's wire form, which every run reads
// and the first one records.
type distState struct {
	rk      *lmm.Ranker
	seed    *localState
	fill    atomic.Pointer[localState]
	digests atomic.Pointer[coordinator.Digests]
}

// DistEngine serves the same queries from a distributed fleet: local
// DocRanks run on the workers (through the coordinator's shard caches
// and loss recovery), the small site layer runs centrally or as
// distributed point-Jacobi rounds, and the answer is built from those
// solutions as on a LocalEngine, with transport statistics attached. Rank
// calls are safe for concurrent use — the coordinator serializes runs —
// but do not overlap on the wire; for query-level concurrency put a
// LocalEngine replica next to the coordinator instead, or turn on
// Coalesce so identical concurrent queries share one wire run.
//
// Serving state is an atomic snapshot exactly as on LocalEngine, and a
// snapshot is its solutions there too, but the fleet solves them: the
// first query at the default Damping/Tol/MaxIter makes one uniform run
// for every site's local DocRank and πS, and every such query, that one
// included, is composed from them and sends nothing — but for a
// SitePersonalization in SiteRankSync mode, whose site layer is fleet
// rounds started from them. A query with a Damping, Tol or MaxIter of
// its own is a run of its own. The three-layer weights are never the
// fleet's: they come from the Ranker's SiteGraph, as on a LocalEngine.
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
	server[*distState]
	coord *coordinator.Coordinator
	cfg   coordinator.Config
}

var _ Engine = (*DistEngine)(nil)

// NewDistEngine builds a distributed serving engine over a running
// cluster: a Ranker is precomputed for the graph (structure only — the
// fleet solves the local DocRanks, on the first query; construction
// sends nothing) and every Rank reuses it. cfg supplies the transport
// knobs (SiteGraph aggregation, SiteRank mode, retry policy) and the
// serving knobs (MaxInFlight, TenantQuota, RejectOverload, Coalesce,
// CoalesceTol); its per-query fields — Damping, Tol, MaxIter,
// SitePersonalization, ThreeLayer — are ignored and overwritten from each
// Query. Mutate the graph only through Update (or build a new engine); a
// mutation outside Update turns every later query into ErrGraphMutated.
func NewDistEngine(cl *Cluster, dg *DocGraph, cfg DistConfig) (*DistEngine, error) {
	rk, err := lmm.NewRanker(dg, lmm.RankerOptions{SiteGraph: cfg.SiteGraph})
	if err != nil {
		return nil, err
	}
	e := &DistEngine{coord: cl.Coord, cfg: cfg}
	e.serve(e, newAdmitGate(cfg.MaxInFlight, cfg.TenantQuota, cfg.RejectOverload), cfg.Coalesce, cfg.CoalesceTol, dg, &distState{rk: rk, seed: &localState{}})
	return e, nil
}

// rebuild is the distributed backend's half of Update: the changed
// sites' structure, and the seed and shard digests carried across.
func (e *DistEngine) rebuild(_ context.Context, cur *snapshot[*distState], dg *DocGraph, changed []SiteID) (*distState, error) {
	next, err := cur.state.rk.RebuildOn(dg, changed)
	if err != nil {
		return nil, err
	}
	state := &distState{rk: next}
	state.digests.Store(cur.state.digests.Load().Drop(changed))
	// A local DocRank depends on its own site's subgraph only, so a clean
	// site's carries verbatim and the next fill asks the fleet for exactly
	// the changed ones (and any site appended since).
	prev := cur.state.fill.Load()
	if prev == nil {
		prev = cur.state.seed
	}
	locals := make([]Vector, dg.NumSites())
	copy(locals, prev.seedLocals)
	for _, s := range changed {
		if int(s) < len(locals) {
			locals[s] = nil
		}
	}
	state.seed = &localState{seedSite: prev.seedSite, seedLocals: locals}
	return state, nil
}

// Rank answers one query against the fleet. The context's deadline
// propagates into every wire exchange and a cancellation aborts the
// in-flight round, returning ctx.Err(). Admission and coalescing
// follow the cfg knobs (see NewDistEngine).
func (e *DistEngine) Rank(ctx context.Context, q Query) (*Result, error) {
	if q.DocPersonalization != nil {
		return nil, fmt.Errorf("%w: document-layer personalization is not part of the distributed wire protocol; use LocalEngine", ErrUnsupportedQuery)
	}
	return e.rank(ctx, q)
}

// solve is the distributed backend's half of Rank: a query fromSnapshot
// takes its locals from the snapshot's fill (making it if it is the
// first), and in SiteRankSync mode with a SitePersonalization its πS from
// a run started from the fill; any other query's are a run from nothing
// but the digests. A site weighting no run solved is weighed as locally.
func (e *DistEngine) solve(ctx context.Context, snap *snapshot[*distState], q Query) (*Result, error) {
	st := snap.state
	var sol *localState          // the solutions the query starts from
	var made *coordinator.Result // the fill, if this query made it
	if !q.fromSnapshot() {       // a run of its own, from no solutions
		sol = &localState{base: st.rk}
	} else if sol = st.fill.Load(); sol == nil {
		var err error
		if made, err = e.run(ctx, st, Query{}, st.seed); err != nil {
			return nil, err
		}
		st.fill.CompareAndSwap(nil, &localState{base: st.rk, pool: newRankerPool(st.rk), seedSite: made.SiteRank, seedLocals: made.LocalRanks})
		sol = st.fill.Load()
	}
	var site siteLayer
	locals, iters, stats := sol.seedLocals, []int(nil), DistStats{LocalRanksReused: len(sol.seedLocals)}
	if !q.fromSnapshot() || q.SitePersonalization != nil && e.cfg.SiteRank == SiteRankSync {
		dres, err := e.run(ctx, st, q, sol)
		if err != nil {
			return nil, err
		}
		// πS is fresh (nil for ThreeLayer); the answer copies LocalRanks.
		site = siteLayer{weights: dres.SiteRank, iters: dres.Stats.SiteRankRounds}
		locals, iters, stats = dres.LocalRanks, dres.LocalIterations, dres.Stats
	}
	if site.weights == nil {
		var err error
		if site, err = sol.weigh(ctx, q); err != nil {
			return nil, err
		}
	}
	if made != nil { // the answer's local DocRanks and its cost are the fill's
		iters, stats = made.LocalIterations, made.Stats
	}
	res := answer(snap.dg, q, site, locals, iters)
	res.Dist = &stats
	return res, nil
}

// run is one coordinator run of q started from from's solutions and the
// snapshot's shard digests, which it records if the run learned them.
func (e *DistEngine) run(ctx context.Context, st *distState, q Query, from *localState) (*coordinator.Result, error) {
	cfg := e.cfg
	cfg.Damping, cfg.Tol, cfg.MaxIter = q.Damping, q.Tol, q.MaxIter
	cfg.SitePersonalization, cfg.ThreeLayer = q.SitePersonalization, q.ThreeLayer
	warm := coordinator.Warm{SiteStart: from.seedSite, Locals: from.seedLocals, Digests: st.digests.Load()}
	dres, err := e.coord.RankPreparedCtx(ctx, st.rk, cfg, warm)
	if err == nil && dres.Digests != warm.Digests {
		st.digests.CompareAndSwap(warm.Digests, dres.Digests)
	}
	return dres, err
}
