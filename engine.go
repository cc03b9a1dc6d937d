package lmmrank

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"lmmrank/internal/dist/coordinator"
	"lmmrank/internal/lmm"
	"lmmrank/internal/partition"
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
	Damping float64
	// Tol and MaxIter bound every solve's L1 change and its sweeps (or
	// fleet rounds); 0 = package defaults.
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
	// site's local sweeps.
	SiteIterations  int
	LocalIterations []int
	// Dist carries the transport/cache statistics of a distributed
	// query (nil for LocalEngine results).
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
	// Parallelism caps the per-query local-DocRank fan-out
	// (0 = GOMAXPROCS). Concurrent serving under load usually wants 1 —
	// the cores are already busy answering distinct queries — while a
	// single caller wants the default.
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
	// TopKIndex maintains a per-snapshot top-k index over the warm local
	// solutions: the engine runs one refresh solve at construction and
	// after every Update (patching only changed sites' posting lists),
	// and serves eligible TopK queries — two-layer, default
	// damping/tolerance/budget, no document-layer personalization — by a
	// threshold merge over the index instead of a fresh solve plus a
	// full re-rank of all documents. Served rankings are the snapshot's
	// warm solution: within solver tolerance of an exact solve, and the
	// Top table is bit-identical to fully sorting that same solution.
	// LocalEngine only: DistConfig has no such knob.
	TopKIndex bool
}

// validate rejects query-shape combinations no backend serves, keeping
// the two engines' contracts identical. Malformed personalization
// vectors are rejected here, at the serving boundary, rather than left
// to the solvers: a NaN or infinity would otherwise surface as a solver
// failure deep inside the run — or, distributedly, propagate through a
// barrier-free merge unchecked.
func (q Query) validate() error {
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

// localState is what a LocalEngine snapshot holds beside the graph: the
// Ranker built for exactly that graph, the pooled scratch-private clones,
// the warm-start seeds solved on that graph and — with
// EngineOptions.TopKIndex — the maintained top-k index over seedLocals,
// immutable like everything else here and sharing clean sites' posting
// lists with the previous snapshot.
type localState struct {
	base       *lmm.Ranker
	pool       *sync.Pool
	seedSite   Vector
	seedLocals []Vector
	topk       *topkIndex
}

// LocalEngine serves queries from one process: an lmm.Ranker core
// (SiteGraph, per-site CSR matrices, dangling lists) precomputed once
// at construction, fronted by a sync.Pool of scratch-private Rankers.
// Concurrent goroutines serve in parallel — each Rank loads the current
// snapshot, borrows a pooled Ranker, runs the query phase against the
// shared immutable core, copies the result out and returns the scratch.
//
// Serving is lock-free multi-version: the whole serving state lives in
// one atomic pointer to an immutable snapshot. Update builds the next
// snapshot off to the side — the GraphDelta applies to a copy-on-write
// clone that shares every clean site's adjacency with the old graph by
// pointer — and publishes it with a single store. Queries never block
// an Update and an Update never blocks a query: a straggler that
// started before the swap finishes on its old snapshot, bit-identical
// to an uncontended run. MaxInFlight/RejectOverload add an admission
// cap in front and Coalesce folds concurrent identical queries into one
// computation (see EngineOptions).
//
// Update publishes a warm snapshot: only the changed sites' SiteGraph
// rows, matrices and solvers are rebuilt, and a refresh solve — itself
// warm-started from the previous update's solution — becomes the seed
// every subsequent query's solves start from. Rankings served
// after Update agree with a cold rebuild to solver tolerance (pinned
// < 1e-9 in the tests) while doing measurably less iteration and
// allocation work.
type LocalEngine struct {
	server[*localState]
	parallelism int
	topkIndex   bool
}

var _ Engine = (*LocalEngine)(nil)

// NewLocalEngine validates dg and precomputes the serving structure:
// the SiteGraph and every site's transition matrix and PageRank chain,
// built eagerly (in parallel) so that queries only ever read shared
// state. Beside the graph a snapshot keeps each intra-site link once, in
// the pull form the kernels read; no subgraph copy is retained. The graph is captured by reference; mutate it
// only through Update (or build a new engine) — a mutation outside
// Update turns every later query into ErrGraphMutated. After an
// Apply-path Update the engine serves an evolved copy of the graph;
// read it back with DocGraph().
func NewLocalEngine(dg *DocGraph, opts EngineOptions) (*LocalEngine, error) {
	rk, err := lmm.NewRanker(dg, lmm.RankerOptions{SiteGraph: opts.SiteGraph})
	if err != nil {
		return nil, err
	}
	rk.Prepare()
	e := &LocalEngine{parallelism: opts.Parallelism, topkIndex: opts.TopKIndex}
	state := &localState{base: rk, pool: newRankerPool(rk)}
	if opts.TopKIndex {
		// The maintained index needs a warm solution to index, so a
		// TopKIndex engine front-loads the first solve to construction
		// time (a plain engine defers it to the first query/Update).
		if state, err = e.refresh(context.TODO(), rk, dg, state, nil); err != nil {
			return nil, err
		}
	}
	e.serve(e, newAdmitGate(opts.MaxInFlight, opts.TenantQuota, opts.RejectOverload), opts.Coalesce, opts.CoalesceTol, dg, state)
	return e, nil
}

// newRankerPool wraps a prepared Ranker in a pool of scratch-private
// Share() clones — the pool lives inside one snapshot, so stale scratch
// can never serve a rebuilt core.
func newRankerPool(base *lmm.Ranker) *sync.Pool {
	return &sync.Pool{New: func() any { return base.Share() }}
}

// rebuild is the local backend's half of Update: the changed sites'
// structure, then the refresh solve.
func (e *LocalEngine) rebuild(ctx context.Context, cur *snapshot[*localState], dg *DocGraph, changed []SiteID) (*localState, error) {
	next, err := cur.state.base.RebuildOn(dg, changed)
	if err != nil {
		return nil, err
	}
	next.Prepare()
	return e.refresh(ctx, next, dg, cur.state, changed)
}

// refresh solves rk at the default query parameters, warm-started from
// prev's seeds where the shapes survived (changed sites whose roster grew
// start cold automatically — seeds are shape-checked hints), and returns
// the state to publish: the solution cloned into the next seeds. A
// TopKIndex engine refreshes instead of re-solving: clean sites keep
// their previous local solutions bit-for-bit (a warm re-polish would
// drift them by an ulp), which is exactly what makes patching only the
// changed sites' posting lists sound.
func (e *LocalEngine) refresh(ctx context.Context, rk *lmm.Ranker, dg *DocGraph, prev *localState, changed []SiteID) (*localState, error) {
	cfg := lmm.WebConfig{
		Parallelism: e.parallelism,
		SiteStart:   prev.seedSite,
		LocalStarts: prev.seedLocals,
		Ctx:         ctx,
	}
	var wr *lmm.WebResult
	var err error
	if e.topkIndex {
		wr, err = rk.Share().RankRefresh(changed, cfg)
	} else {
		wr, err = rk.Share().Rank(cfg)
	}
	if err != nil {
		return nil, normalizeCtxErr(ctx, err)
	}
	state := &localState{
		base:       rk,
		pool:       newRankerPool(rk),
		seedSite:   wr.SiteRank.Clone(),
		seedLocals: cloneVectors(wr.LocalRanks),
	}
	if e.topkIndex {
		changedSet := make(map[SiteID]bool, len(changed))
		for _, s := range changed {
			changedSet[s] = true
		}
		state.topk = prev.topk.patch(dg, state.seedLocals, changedSet)
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

// indexEligible reports whether q can serve from the snapshot's
// maintained top-k index: a two-layer TopK query at the default
// damping/tolerance/iteration budget with no document-layer
// personalization and no LocalRanks request — exactly the queries whose
// document layers equal the snapshot's warm solution, which is what the
// index indexes. Site-layer personalization is eligible: the Partition
// Theorem composes DocRank as siteWeight·localRank, so the posting
// lists are valid under any site weighting and only the small site
// layer needs solving.
func (st *localState) indexEligible(q Query) bool {
	return st.topk != nil && q.TopK > 0 && !q.ThreeLayer &&
		q.DocPersonalization == nil && !q.WantLocalRanks &&
		q.Damping == 0 && q.Tol == 0 && q.MaxIter == 0
}

// rankFromIndex answers an eligible query from the snapshot's top-k
// index: the served DocRank is the warm solution composed under the
// query's site weights, and the Top table is a threshold merge over the
// per-site posting lists — bit-identical to fully sorting that DocRank,
// without touching the other N−k documents.
func (e *LocalEngine) rankFromIndex(ctx context.Context, snap *snapshot[*localState], q Query) (*Result, error) {
	st := snap.state
	weights := st.seedSite
	siteIters := 0
	if q.SitePersonalization != nil {
		// Only the site layer depends on the personalization; re-solve
		// it (warm-started from the snapshot's πS) and keep the warm
		// document layers.
		rk := st.pool.Get().(*lmm.Ranker)
		defer st.pool.Put(rk)
		cfg := q.webConfig(ctx, e.parallelism)
		cfg.SiteStart = st.seedSite
		sr, iters, err := rk.RankSites(cfg)
		if err != nil {
			return nil, normalizeCtxErr(ctx, err)
		}
		// sr aliases the pooled Ranker's scratch; privatize before the
		// deferred Put can hand that scratch to another query.
		weights = sr.Clone()
		siteIters = iters
	}
	e.stats.topkIndex.Add(1)
	return &Result{
		DocRank:         lmm.ComposeDocRank(snap.dg, weights, st.seedLocals),
		SiteRank:        weights.Clone(),
		SiteIterations:  siteIters,
		LocalIterations: make([]int, len(snap.dg.Sites)),
		Top:             st.topk.top(snap.dg, weights, q.TopK),
	}, nil
}

// solve is the local backend's half of Rank: from the index when the
// query is eligible, a pooled Ranker's query phase otherwise.
func (e *LocalEngine) solve(ctx context.Context, snap *snapshot[*localState], q Query) (*Result, error) {
	st := snap.state
	if st.indexEligible(q) {
		return e.rankFromIndex(ctx, snap, q)
	}
	rk := st.pool.Get().(*lmm.Ranker)
	defer st.pool.Put(rk)
	cfg := q.webConfig(ctx, e.parallelism)
	// Post-churn queries start their solves from the last
	// update's solution instead of uniform (nil seeds before the first
	// Update mean a cold start). The site seed is a two-layer πS and
	// stays out of three-layer queries: their upper stack ranks domains
	// and entry nodes, where a same-length site vector would be a
	// wrong-distribution seed, not a warm start. The local seeds apply
	// to both models — the document layer is identical in both.
	if !q.ThreeLayer {
		cfg.SiteStart = st.seedSite
	}
	cfg.LocalStarts = st.seedLocals

	var res *Result
	if q.ThreeLayer {
		wr, err := rk.Rank3(q.DomainOf, cfg)
		if err != nil {
			return nil, normalizeCtxErr(ctx, err)
		}
		res = &Result{
			DocRank: wr.DocRank.Clone(),
			// The domain-layer vectors (SiteWeights included) are
			// freshly allocated per query — already caller-owned.
			SiteRank:        wr.SiteWeights,
			Domains:         wr.Domains,
			DomainRank:      wr.DomainRank,
			DomainOfSite:    wr.DomainOfSite,
			SiteEntry:       wr.SiteEntry,
			LocalIterations: append([]int(nil), wr.LocalIterations...),
		}
		if q.WantLocalRanks {
			res.LocalRanks = cloneVectors(wr.LocalRanks)
		}
	} else {
		wr, err := rk.Rank(cfg)
		if err != nil {
			return nil, normalizeCtxErr(ctx, err)
		}
		res = &Result{
			DocRank:         wr.DocRank.Clone(),
			SiteRank:        wr.SiteRank.Clone(),
			SiteIterations:  wr.SiteIterations,
			LocalIterations: append([]int(nil), wr.LocalIterations...),
		}
		if q.WantLocalRanks {
			res.LocalRanks = cloneVectors(wr.LocalRanks)
		}
	}
	return res, nil
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

// distState is what a DistEngine snapshot holds beside the graph: the
// structural Ranker built for exactly that graph and — when a partition
// strategy is configured — the pinned site→shard assignment every query
// under this snapshot serves with, plus the cut fraction measured when
// that assignment was last (re)computed. baseCut is the drift baseline:
// Update compares the carried assignment's cut against it to decide
// whether churn has degraded the placement enough to repartition online.
//
// warm and digests are learned rather than built. warm is what the
// snapshot knows of its own default-parameter answer. Each distWarm is
// immutable; a Rank that learned more than the state it started from
// publishes a successor by compare-and-swap and a loser of that race
// drops what it learned, so every stage is recorded once and, from then
// on, default-parameter answers on this snapshot are bit-identical.
// digests is the graph's wire form as the coordinator names it — shard
// digests and sizes, no payloads — which no query parameter changes, so
// every Rank reads it and the first one records it the same way.
type distState struct {
	rk      *lmm.Ranker
	asg     partition.Assignment
	baseCut float64
	warm    atomic.Pointer[distWarm]
	digests atomic.Pointer[coordinator.Digests]
}

// distWarm is the document layer the Layered Method says stays put, and
// the last site layer — what localState's seedLocals/seedSite are to
// LocalEngine — in the form the coordinator takes them. A new engine's
// is empty. Update builds a snapshot's first one from its predecessor's:
// clean sites' Locals by pointer, changed sites' nil, the old πS as
// SiteStart. The first Rank fills Locals in (full); the first uniform
// two-layer Rank also replaces SiteStart with the πS it converged to on
// this graph (solved). Its Digests stay nil: distState.digests holds
// those, for queries of any parameters.
type distWarm struct {
	coordinator.Warm
	full   bool
	solved bool
}

// DistEngine serves the same queries from a distributed fleet: local
// DocRanks run on the workers (through the coordinator's shard caches,
// loss recovery and optional compression), the small site layer runs
// centrally or as distributed point-Jacobi rounds, and the composed result
// comes back caller-owned with transport statistics attached. Rank
// calls are safe for concurrent use — the coordinator serializes runs —
// but do not overlap on the wire; for query-level concurrency put a
// LocalEngine replica next to the coordinator instead, or turn on
// Coalesce so identical concurrent queries share one wire run.
//
// Serving state is an atomic snapshot exactly as on LocalEngine: an
// Update rebuilds against a copy-on-write clone and publishes with one
// pointer store, never waiting on queries; a Rank that started before
// the swap completes against its old Ranker (whose graph never
// mutated). The wire itself still serializes at the coordinator.
//
// The document layer is query-independent, so a snapshot keeps it: the
// first query at the default Damping/Tol/MaxIter records every site's
// local DocRank and (if uniform and two-layer) the converged πS, and
// later such queries ask the fleet for no local ranks and start the
// site layer from that πS — re-solving and re-hauling only the
// N_S-sized layer the query can change. Update carries clean sites'
// vectors into the next snapshot verbatim and the old πS as a seed.
//
// The wire form is query-independent too: the snapshot keeps each
// site's shard digest and size (coordinator.Digests; the payloads live
// only inside the run that ships them), and every query, whatever its
// parameters, declares shards by those digests without hashing. Update
// rebuilds the Ranker incrementally (clean sites keep their precomputed
// structure) and carries the clean sites' digests, so the next Rank
// re-hashes only the changed shards — which, through the workers' digest
// caches, then re-ships only the changed shards, and asks the fleet for
// only the changed sites' local DocRanks: a 1-site edit on an N-site web
// moves ~1/N of a cold load's bytes (Result.Dist.CacheHits /
// ShardsReshipped / LocalRanksReused / DigestBytesHashed account for it
// per run). A failed Apply re-ships nothing; the wire never carries stale
// shards.
type DistEngine struct {
	server[*distState]
	coord        *coordinator.Coordinator
	cfg          coordinator.Config
	repartitions atomic.Int64
}

var _ Engine = (*DistEngine)(nil)

// NewDistEngine builds a distributed serving engine over a running
// cluster: a Ranker is precomputed for the graph (structure only — the
// fleet does the local solving, on the first query) and every Rank
// reuses it, so repeated queries ship near-zero shard bytes and hash
// zero digest bytes. cfg
// supplies the transport knobs (SiteGraph aggregation, SiteRank mode,
// retry policy, compression) and the serving knobs
// (MaxInFlight, TenantQuota, RejectOverload, Coalesce, CoalesceTol);
// its per-query fields —
// Damping, Tol, MaxIter, SitePersonalization, ThreeLayer, DomainOf —
// are ignored and overwritten from each Query. Mutate the graph only
// through Update (or build a new engine); a mutation outside Update
// turns every later query into ErrGraphMutated.
func NewDistEngine(cl *Cluster, dg *DocGraph, cfg DistConfig) (*DistEngine, error) {
	rk, err := lmm.NewRanker(dg, lmm.RankerOptions{SiteGraph: cfg.SiteGraph})
	if err != nil {
		return nil, err
	}
	e := &DistEngine{coord: cl.Coord, cfg: cfg}
	state := &distState{rk: rk}
	state.warm.Store(&distWarm{})
	// With a partition strategy configured the engine pins the
	// assignment per snapshot: every query serves under the same
	// placement (stable digest caches) and Update measures cut-edge
	// drift against the baseline recorded here.
	if cfg.Partition != nil {
		state.asg = cfg.Partition.Partition(dg, cl.Coord.NumWorkers())
		state.baseCut = partition.CutFraction(rk.SiteGraph(), state.asg.Owner)
	}
	e.serve(e, newAdmitGate(cfg.MaxInFlight, cfg.TenantQuota, cfg.RejectOverload), cfg.Coalesce, cfg.CoalesceTol, dg, state)
	return e, nil
}

// rebuild is the distributed backend's half of Update: the changed
// sites' structure, and the warm state, shard digests and placement
// carried across.
func (e *DistEngine) rebuild(_ context.Context, cur *snapshot[*distState], dg *DocGraph, changed []SiteID) (*distState, error) {
	next, err := cur.state.rk.RebuildOn(dg, changed)
	if err != nil {
		return nil, err
	}
	state := &distState{rk: next}
	state.digests.Store(cur.state.digests.Load().Drop(changed))
	// A local DocRank depends on its own site's subgraph only, so a clean
	// site's carries verbatim and the next Rank asks the fleet for exactly
	// the changed ones (and any site appended since).
	prev := cur.state.warm.Load()
	locals := make([]Vector, dg.NumSites())
	copy(locals, prev.Locals)
	for _, s := range changed {
		if int(s) < len(locals) {
			locals[s] = nil
		}
	}
	state.warm.Store(&distWarm{Warm: coordinator.Warm{SiteStart: prev.SiteStart, Locals: locals}})
	if len(cur.state.asg.Owner) > 0 {
		state.asg, state.baseCut = e.carryAssignment(cur.state, dg, next, changed)
	}
	return state, nil
}

// carryAssignment decides the next snapshot's placement after churn.
// The zero-migration default extends the current assignment over any
// new sites; the resulting cut fraction is compared against the
// baseline recorded at the last (re)partition, and when the drift
// exceeds cfg.RepartitionThreshold the strategy's Rebalance
// re-optimizes online. A moved shard then migrates through the normal
// serving path: rebuild (above) has already carried the clean digests,
// so the next Rank, declaring every shard by digest, re-ships only those
// whose new owner has never cached their content — a clean shard moving
// to a warm worker costs one ref, not a payload.
func (e *DistEngine) carryAssignment(cur *distState, dg *DocGraph, rk *lmm.Ranker, changed []SiteID) (partition.Assignment, float64) {
	ext := partition.Extend(dg, cur.asg)
	frac := partition.CutFraction(rk.SiteGraph(), ext.Owner)
	thr := e.cfg.RepartitionThreshold
	if thr <= 0 || e.cfg.Partition == nil || frac-cur.baseCut <= thr {
		return ext, cur.baseCut
	}
	reb := e.cfg.Partition.Rebalance(dg, changed, ext)
	e.repartitions.Add(1)
	return reb, partition.CutFraction(rk.SiteGraph(), reb.Owner)
}

// Repartitions reports how many online repartitions Update has
// triggered over the engine's lifetime — always 0 unless a Partition
// strategy and a positive RepartitionThreshold are configured.
func (e *DistEngine) Repartitions() int { return int(e.repartitions.Load()) }

// PartitionOwners returns a copy of the site→shard assignment the
// current snapshot serves under, or nil when no Partition strategy was
// configured (the coordinator then places per run with its default).
func (e *DistEngine) PartitionOwners() []int {
	asg := e.snap.Load().state.asg
	if len(asg.Owner) == 0 {
		return nil
	}
	return append([]int(nil), asg.Owner...)
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

// solve is the distributed backend's half of Rank: one coordinator run
// against the pinned snapshot.
func (e *DistEngine) solve(ctx context.Context, snap *snapshot[*distState], q Query) (*Result, error) {
	st := snap.state
	cfg := e.cfg
	cfg.Damping = q.Damping
	cfg.Tol = q.Tol
	cfg.MaxIter = q.MaxIter
	cfg.SitePersonalization = q.SitePersonalization
	cfg.ThreeLayer = q.ThreeLayer
	cfg.DomainOf = q.DomainOf
	if len(st.asg.Owner) > 0 {
		// Serve under the snapshot's pinned placement (falls back to the
		// strategy inside the coordinator if the live fleet shrank).
		cfg.Assignment = st.asg.Owner
	}
	// The snapshot's warm state was solved at the default parameters; a
	// query with its own neither reads nor writes it (as indexEligible).
	// The site seed is a two-layer πS: the coordinator keeps it out of a
	// three-layer run, which still reuses the locals — the document layer
	// is the same in both models. The digests hold for any parameters.
	defaults := q.Damping == 0 && q.Tol == 0 && q.MaxIter == 0
	warm := &distWarm{}
	if defaults {
		warm = st.warm.Load()
	}
	known := warm.Warm
	known.Digests = st.digests.Load()
	dres, err := e.coord.RankPreparedCtx(ctx, st.rk, cfg, known)
	if err != nil {
		return nil, err
	}
	if dres.Digests != known.Digests {
		st.digests.CompareAndSwap(known.Digests, dres.Digests)
	}
	if defaults {
		st.learn(warm, dres, !q.ThreeLayer && q.SitePersonalization == nil)
	}
	stats := dres.Stats
	res := &Result{
		// DocRank, SiteRank and the domain layers are freshly allocated
		// per run — already caller-owned. LocalRanks are the snapshot's.
		DocRank:         dres.DocRank,
		SiteRank:        dres.SiteRank,
		Domains:         dres.Domains,
		DomainRank:      dres.DomainRank,
		DomainOfSite:    dres.DomainOfSite,
		SiteEntry:       dres.SiteEntry,
		SiteIterations:  dres.Stats.SiteRankRounds,
		LocalIterations: dres.LocalIterations,
		Dist:            &stats,
	}
	if q.WantLocalRanks {
		res.LocalRanks = cloneVectors(dres.LocalRanks)
	}
	return res, nil
}

// learn records what a default-parameter run found out beyond from, the
// warm state it started on: every site's local DocRank, and — for a
// uniform two-layer query — the πS it converged to on this graph.
func (st *distState) learn(from *distWarm, dres *coordinator.Result, uniform bool) {
	learnSite := uniform && !from.solved
	if from.full && !learnSite {
		return
	}
	next := *from
	next.Locals, next.full = dres.LocalRanks, true
	if learnSite {
		// The caller owns dres.SiteRank; the snapshot keeps its own copy.
		next.SiteStart, next.solved = dres.SiteRank.Clone(), true
	}
	st.warm.CompareAndSwap(from, &next)
}
