package lmm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"lmmrank/internal/graph"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
)

// ErrGraphMutated is returned by a Ranker whose DocGraph mutated after
// the structure was precomputed (detected via graph.Digraph.Version).
// The precomputed subgraphs, transition matrices and chains no longer
// describe the graph, so serving would silently return stale rankings;
// instead the query fails and the caller rebuilds — Rebuild for the
// incremental path that reuses unchanged sites, NewRanker for a cold
// rebuild, or Engine.Update at the serving layer. Check with errors.Is.
var ErrGraphMutated = errors.New("lmm: graph mutated after Ranker construction; Rebuild the Ranker (or Engine.Update) before ranking")

// RankerOptions fixes the graph-derivation choices a Ranker precomputes.
type RankerOptions struct {
	// SiteGraph controls SiteLink aggregation (§3.1). It is baked into
	// the precomputed structure — build a new Ranker to change it.
	SiteGraph graph.SiteGraphOptions
}

// rankerSite is what a Ranker retains of one site: the roster index and
// the shareable PageRank chain — whose pull-form CSR is the one copy of
// the site's links a snapshot holds beside the DocGraph.
// The subgraph itself is not kept. The chain is built lazily under a
// sync.Once on the first query that needs it, from a subgraph extracted
// for the occasion and dropped — consumers of the structure alone, like
// the distributed coordinator shipping edge lists to workers, never pay
// for it, while concurrent Share()d rankers racing on a cold site build
// it exactly once. fixed is the constant local rank of 0/1-doc sites,
// which need no chain at all.
type rankerSite struct {
	idx   *graph.LocalIndex
	fixed matrix.Vector

	once  sync.Once
	chain *pagerank.Chain
}

// getChain returns the site's shareable PageRank chain, building it on
// first use from dg, the graph of whichever core asks first. A
// rankerSite is shared by every core in which the site is clean, and a
// clean site's rows are identical in all of their graphs, so which one
// triggers the Once cannot matter.
func (st *rankerSite) getChain(dg *graph.DocGraph, s graph.SiteID) *pagerank.Chain {
	st.once.Do(func() {
		sub, _ := dg.LocalSubgraph(s)
		st.chain = pagerank.NewChain(sub.TransitionMatrix())
	})
	return st.chain
}

// rankerCore is the shared half of a Ranker: everything derived from the
// graph alone, none of it query-specific. After Prepare (or the lazy
// sync.Once builds) the core is immutable, which is what lets any number
// of Share()d rankers serve queries over it concurrently. Sites are held
// by pointer so an incremental Rebuild can share unchanged sites'
// structure (index, lazily built chain) between the old and the new
// core.
type rankerCore struct {
	dg    *graph.DocGraph
	opts  RankerOptions
	sg    *graph.SiteGraph
	sites []*rankerSite
	// version records dg.G.Version() at construction; a mismatch at query
	// time means the graph mutated under the precomputed structure.
	version uint64

	siteOnce  sync.Once
	siteChain *pagerank.Chain
}

// siteLayerChain returns the site-layer chain M(G_S), building it once.
func (c *rankerCore) siteLayerChain() *pagerank.Chain {
	c.siteOnce.Do(func() { c.siteChain = pagerank.NewChain(c.sg.G.TransitionMatrix()) })
	return c.siteChain
}

// Ranker is the serving-path form of the §3.2 pipeline: NewRanker
// derives the SiteGraph and every local subgraph G^s_d once (the first
// Rank adds the per-site transition matrices and solvers), then Rank
// answers repeated queries — uniform or personalized at either layer,
// two- or three-layer — with near-zero setup cost and no steady-state
// allocations beyond the returned WebResult header.
//
// That asymmetry is the point of the Layered Method: the expensive
// structure (CSR matrices, dangling lists, scratch vectors) depends only
// on the graph, while a query merely reruns small in-place solves over
// it. Personalized rankings (§3.2's two-layer personalization) therefore
// cost the same as uniform ones.
//
// A Ranker value is not safe for concurrent use: Rank reuses internal
// scratch. Concurrent serving is still cheap — Share returns a new
// Ranker over the same precomputed structure with private scratch, so N
// goroutines hold N Rankers but pay the precomputation once (this is how
// the root package's LocalEngine serves without locking).
//
// The vectors inside a returned WebResult alias that scratch and are
// valid only until the next Rank call on the same Ranker — clone them
// (or use the one-shot LayeredDocRank) to retain results.
//
// The Ranker captures dg by reference. Mutating the graph afterwards
// (adding documents, links or sites) invalidates the precomputed
// structure; build a new Ranker after any mutation.
type Ranker struct {
	core *rankerCore

	// Query scratch, private to this Ranker value.
	siteSolver *pagerank.Solver
	solvers    []*pagerank.Solver

	// Reusable result buffers, rewritten by every Rank.
	docRank    matrix.Vector
	localRanks []matrix.Vector
	localIters []int
	errs       []error
}

// NewRanker validates dg and precomputes the graph-only part of the
// layered ranking structure: the SiteGraph and every site's roster index
// (the site chain and the per-site CSR chains follow on the first Rank or
// on Prepare, so structure-only consumers like the distributed
// coordinator skip that cost). The DocGraph is readied up front (its
// digraph deduplicated, its local column derived), so neither Prepare's
// fan-out nor the per-query phase ever mutates shared graph state.
func NewRanker(dg *graph.DocGraph, opts RankerOptions) (*Ranker, error) {
	if err := dg.Validate(); err != nil {
		return nil, fmt.Errorf("lmm: ranker: %w", err)
	}
	if dg.NumDocs() == 0 {
		return nil, fmt.Errorf("lmm: ranker: empty graph")
	}
	dg.Dedupe()

	core := &rankerCore{
		dg:      dg,
		opts:    opts,
		sg:      graph.DeriveSiteGraph(dg, opts.SiteGraph),
		sites:   make([]*rankerSite, dg.NumSites()),
		version: dg.G.Version(),
	}
	for s := range core.sites {
		core.sites[s] = newRankerSite(dg, graph.SiteID(s))
	}
	return &Ranker{core: core}, nil
}

// newRankerSite records what is retained of site s before any query: its
// roster as it stands, aliased (dg's own is append-only, so later
// documents land past this one's length) — the per-site body of
// NewRanker, shared with the incremental Rebuild.
func newRankerSite(dg *graph.DocGraph, s graph.SiteID) *rankerSite {
	st := &rankerSite{idx: dg.LocalIndex(s)}
	switch st.idx.Len() {
	case 0:
		st.fixed = matrix.Vector{}
	case 1:
		// A single-document site trivially holds all local mass.
		st.fixed = matrix.Vector{1}
	}
	return st
}

// Share returns a new Ranker serving the same precomputed structure with
// fully private query scratch. Share is how concurrent serving works:
// the shared core (SiteGraph, CSR chains, dangling lists) is read-only
// at query time, while solvers, iteration buffers and result vectors
// belong to each shared Ranker alone — so goroutines holding distinct
// Share()d rankers may Rank concurrently without any locking.
//
// Call Prepare on one of the rankers first (or serve a warm-up query
// before going concurrent): it forces the lazily built shared pieces so
// the cold-start builds are not left to race (they are sync.Once-guarded
// and therefore safe either way, merely redundant).
func (r *Ranker) Share() *Ranker { return &Ranker{core: r.core} }

// Prepare eagerly builds every lazily constructed piece of the shared
// structure — the site-layer chain and each multi-document site's CSR
// transition matrix and PageRank chain — in parallel. After Prepare the
// core is immutable; queries only read it.
func (r *Ranker) Prepare() {
	c := r.core
	c.siteLayerChain()
	ForEachParallel(len(c.sites), 0, func(s int) {
		if st := c.sites[s]; st.fixed == nil {
			st.getChain(c.dg, graph.SiteID(s))
		}
	})
}

// Stale reports whether the DocGraph's digraph mutated after this
// Ranker's structure was precomputed (its Version advanced). A stale
// Ranker's subgraphs, chains and shard digests no longer describe the
// graph; Rank/Rank3/RankSites refuse with ErrGraphMutated. Recover with
// Rebuild (reusing unchanged sites' structure) or a fresh NewRanker.
func (r *Ranker) Stale() bool { return r.core.dg.G.Version() != r.core.version }

// DocGraph returns the graph this Ranker serves.
func (r *Ranker) DocGraph() *graph.DocGraph { return r.core.dg }

// SiteGraph returns the precomputed site-level aggregation.
func (r *Ranker) SiteGraph() *graph.SiteGraph { return r.core.sg }

// NumSites returns the number of sites.
func (r *Ranker) NumSites() int { return len(r.core.sites) }

// LocalSubgraph extracts site s's subgraph from the Ranker's graph — on
// demand, at O(site) cost per call: no subgraph is retained (its links
// live on in the site's chain, in the form the kernels read). The index
// is the retained one; callers must treat it as read-only.
func (r *Ranker) LocalSubgraph(s graph.SiteID) (*graph.Digraph, *graph.LocalIndex) {
	sub, _ := r.core.dg.LocalSubgraph(s)
	return sub, r.core.sites[s].idx
}

// RankSites computes only the site layer πS = PageRank(Mˆ(G_S)) — the
// piece a distributed coordinator runs centrally while the fleet ranks
// documents. The returned vector aliases solver scratch (valid until the
// next RankSites/Rank call); the int is the number of sweeps it took.
func (r *Ranker) RankSites(cfg WebConfig) (matrix.Vector, int, error) {
	if r.Stale() {
		return nil, 0, ErrGraphMutated
	}
	if r.siteSolver == nil {
		r.siteSolver = r.core.siteLayerChain().NewSolver()
	}
	var start matrix.Vector
	if len(cfg.SiteStart) == len(r.core.sites) {
		start = cfg.SiteStart
	}
	res, err := r.siteSolver.Solve(pagerank.Config{
		Damping:         cfg.Damping,
		Personalization: cfg.SitePersonalization,
		Tol:             cfg.Tol,
		MaxIter:         cfg.MaxIter,
		Start:           start,
		Ctx:             cfg.Ctx,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("lmm: siterank: %w", err)
	}
	return res.Scores, res.Iterations, nil
}

// ensureQueryState lazily builds this Ranker's private result buffers,
// so structure-only consumers (the distributed coordinator ships
// subgraphs to workers and never ranks locally) don't pay for them.
func (r *Ranker) ensureQueryState() {
	if r.docRank != nil {
		return
	}
	r.docRank = matrix.NewVector(r.core.dg.NumDocs())
	r.solvers = make([]*pagerank.Solver, len(r.core.sites))
	r.localRanks = make([]matrix.Vector, len(r.core.sites))
	r.localIters = make([]int, len(r.core.sites))
	r.errs = make([]error, len(r.core.sites))
}

// Rank executes the query phase of §3.2 against the precomputed
// structure: SiteRank, per-site local DocRanks (in parallel when
// cfg.Parallelism allows), and the Partition-Theorem composition.
// cfg.SiteGraph is ignored — that choice was fixed at NewRanker time.
//
// The returned WebResult's vectors alias the Ranker's internal buffers;
// see the type comment for the reuse contract.
func (r *Ranker) Rank(cfg WebConfig) (*WebResult, error) {
	r.ensureQueryState()
	siteRank, siteIters, err := r.RankSites(cfg)
	if err != nil {
		return nil, err
	}
	if err := r.rankLocals(&cfg); err != nil {
		return nil, err
	}
	composeDocRankInto(r.docRank, r.core.dg, siteRank, r.localRanks)
	return &WebResult{
		DocRank:         r.docRank,
		SiteRank:        siteRank,
		LocalRanks:      r.localRanks,
		SiteIterations:  siteIters,
		LocalIterations: r.localIters,
	}, nil
}

// rankLocals runs every site's local DocRank into this Ranker's buffers.
// The loop is data-parallel — every site solver is independent — and the
// single-worker case runs a plain loop: no goroutines, no closure, no
// allocations.
func (r *Ranker) rankLocals(cfg *WebConfig) error {
	errs := r.errs
	for s := range errs {
		errs[s] = nil
	}
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		for s := range r.core.sites {
			r.rankLocal(s, cfg)
		}
	} else {
		// The closure must capture a block-local copy: capturing cfg
		// itself would force it onto the heap for the serial path too,
		// breaking the zero-allocation budget.
		c := *cfg
		ForEachParallel(len(r.core.sites), workers, func(s int) {
			r.rankLocal(s, &c)
		})
	}
	for s, err := range errs {
		if err != nil {
			return fmt.Errorf("lmm: local docrank of site %d (%s): %w",
				s, r.core.dg.Sites[s].Name, err)
		}
	}
	return nil
}

// rankLocal solves one site's local DocRank into the Ranker's reusable
// buffers (step 3 of §3.2 for one site).
func (r *Ranker) rankLocal(s int, cfg *WebConfig) {
	st := r.core.sites[s]
	if st.fixed != nil {
		r.localRanks[s] = st.fixed
		r.localIters[s] = 0
		return
	}
	if r.solvers[s] == nil {
		// First query on this Ranker builds its private solver over the
		// shared chain; each site is owned by exactly one goroutine of
		// the fan-out, and the barrier at its end publishes the solver
		// for later queries.
		r.solvers[s] = st.getChain(r.core.dg, graph.SiteID(s)).NewSolver()
	}
	var pers matrix.Vector
	if cfg.DocPersonalization != nil {
		pers = cfg.DocPersonalization[graph.SiteID(s)]
	}
	var start matrix.Vector
	if s < len(cfg.LocalStarts) && len(cfg.LocalStarts[s]) == st.idx.Len() {
		start = cfg.LocalStarts[s]
	}
	res, err := r.solvers[s].Solve(pagerank.Config{
		Damping:         cfg.Damping,
		Personalization: pers,
		Tol:             cfg.Tol,
		MaxIter:         cfg.MaxIter,
		Start:           start,
		Ctx:             cfg.Ctx,
	})
	if err != nil {
		r.errs[s] = err
		return
	}
	r.localRanks[s] = res.Scores
	r.localIters[s] = res.Iterations
}

// RankRefresh is the Update-path refresh solve: like Rank, but a site
// not listed in changed whose cfg.LocalStarts seed still matches its
// subgraph shape keeps that previous local solution *verbatim* (zero
// iterations) instead of re-polishing it. An untouched site's local
// layer is already converged — the Layered Method makes it independent
// of every other site — and carrying it bit-for-bit is what lets a
// serving snapshot's top-k index patch only dirty sites' posting lists.
// Changed sites (and any site without a shape-matching seed, including
// every site on a cold first refresh) solve exactly as in Rank,
// warm-started where the seed survived. The SiteRank always re-solves —
// any link change can shift it — warm-started from cfg.SiteStart.
//
// The reused local vectors alias cfg.LocalStarts, not this Ranker's
// scratch; the caller owns both sides (the Engine clones the result
// into its snapshot either way).
func (r *Ranker) RankRefresh(changed []graph.SiteID, cfg WebConfig) (*WebResult, error) {
	r.ensureQueryState()
	siteRank, siteIters, err := r.RankSites(cfg)
	if err != nil {
		return nil, err
	}
	changedSet := make(map[int]bool, len(changed))
	for _, s := range changed {
		changedSet[int(s)] = true
	}
	var pending []int
	for s, st := range r.core.sites {
		if st.fixed != nil {
			r.localRanks[s] = st.fixed
			r.localIters[s] = 0
			continue
		}
		if !changedSet[s] && s < len(cfg.LocalStarts) && len(cfg.LocalStarts[s]) == st.idx.Len() {
			r.localRanks[s] = cfg.LocalStarts[s]
			r.localIters[s] = 0
			continue
		}
		pending = append(pending, s)
	}
	errs := r.errs
	for s := range errs {
		errs[s] = nil
	}
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || len(pending) <= 1 {
		for _, s := range pending {
			r.rankLocal(s, &cfg)
		}
	} else {
		c := cfg
		ForEachParallel(len(pending), workers, func(i int) {
			r.rankLocal(pending[i], &c)
		})
	}
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("lmm: refresh docrank of site %d (%s): %w",
				s, r.core.dg.Sites[s].Name, err)
		}
	}
	composeDocRankInto(r.docRank, r.core.dg, siteRank, r.localRanks)
	return &WebResult{
		DocRank:         r.docRank,
		SiteRank:        siteRank,
		LocalRanks:      r.localRanks,
		SiteIterations:  siteIters,
		LocalIterations: r.localIters,
	}, nil
}

// Rank3 answers a three-layer (domain → site → page) query against the
// precomputed structure: the domain layer and per-domain site-entry
// distributions are computed fresh from the SiteGraph (they depend on
// the query's domainOf grouping), the local DocRanks reuse this Ranker's
// solvers and buffers exactly like Rank, and the composition follows the
// recursive Partition argument. domainOf nil selects DefaultDomainOf.
//
// The returned Web3Result's DocRank and LocalRanks alias the Ranker's
// scratch (same contract as Rank); the domain-layer vectors are freshly
// allocated. Three-layer queries therefore allocate per call — the small
// domain-layer graphs are rebuilt each time — but never mutate shared
// state, so Share()d rankers may serve them concurrently.
func (r *Ranker) Rank3(domainOf func(siteName string) string, cfg WebConfig) (*Web3Result, error) {
	if r.Stale() {
		return nil, ErrGraphMutated
	}
	// SiteStart is a two-layer seed (πS over sites). The three-layer
	// upper stack solves different chains — the domain layer and
	// per-domain site entries — whose dimensions can coincide with the
	// site count (every site its own domain), so a two-layer seed could
	// slip through a shape check and bias the wrong solve. Drop it here:
	// three-layer site-level warmth is not a supported hint. LocalStarts
	// stay — the document layer is identical in both models.
	cfg.SiteStart = nil
	tl, err := r.ThreeLayerWeights(domainOf, cfg)
	if err != nil {
		return nil, err
	}
	r.ensureQueryState()
	if err := r.rankLocals(&cfg); err != nil {
		return nil, fmt.Errorf("lmm: layered3: %w", err)
	}
	composeDocRankInto(r.docRank, r.core.dg, tl.SiteWeights, r.localRanks)
	return &Web3Result{
		DocRank:         r.docRank,
		Domains:         tl.Domains,
		DomainRank:      tl.DomainRank,
		DomainOfSite:    tl.DomainOfSite,
		SiteEntry:       tl.SiteEntry,
		SiteWeights:     tl.SiteWeights,
		LocalRanks:      r.localRanks,
		LocalIterations: r.localIters,
	}, nil
}
