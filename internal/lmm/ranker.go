package lmm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"lmmrank/internal/graph"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
)

// ErrGraphMutated is returned by a Ranker whose DocGraph mutated after
// the structure was precomputed (detected via graph.Digraph.Version).
// The precomputed subgraphs, transition matrices and chains no longer
// describe the graph, so serving would silently return stale rankings;
// instead the query fails and the caller builds a new Ranker. Edits
// belong on a DocGraph.CloneCOW, followed by RebuildOn, which reuses the
// sites the clone did not write — or Engine.Update at the serving layer.
// Check with errors.Is.
var ErrGraphMutated = errors.New("lmm: graph mutated after Ranker construction; build a new Ranker (or edit a clone and RebuildOn) before ranking")

// RankerOptions fixes the graph-derivation choices a Ranker precomputes.
type RankerOptions struct {
	// SiteGraph controls SiteLink aggregation (§3.1). It is baked into
	// the precomputed structure — build a new Ranker to change it.
	SiteGraph graph.SiteGraphOptions
}

// rankerSite is what a Ranker retains of one site: the roster index and,
// once a query has needed it, the shareable PageRank chain — whose
// pull-form CSR is a second copy of the site's links beside the DocGraph.
// The subgraph itself is not kept. A chain is built lazily from a subgraph
// extracted for the occasion and dropped, and it is kept only when the
// caller asks: a query's solve keeps it (getChain with keep), so every
// later query reads the one chain, while a refresh solve that finds none
// builds a private one that goes with its Ranker. Consumers of the
// structure alone, like the distributed coordinator shipping edge lists to
// workers, never pay for it. A kept chain is published once under mu and
// read without it, so concurrent Share()d rankers racing on a cold site
// build it exactly once. fixed is the constant local rank of 0/1-doc
// sites, which need no chain at all.
type rankerSite struct {
	idx   *graph.LocalIndex
	fixed matrix.Vector

	mu    sync.Mutex
	chain atomic.Pointer[pagerank.Chain]
}

// buildChain derives site s's chain from dg. It is a variable only so that
// tests can count the builds.
var buildChain = func(dg *graph.DocGraph, s graph.SiteID) *pagerank.Chain {
	sub, _ := dg.LocalSubgraph(s)
	return pagerank.NewChain(sub.TransitionMatrix())
}

// getChain returns the site's PageRank chain: the kept one if a query has
// built it, otherwise one built now from dg, the graph of whichever core
// asks — kept for every later caller when keep is set, the caller's alone
// when it is not. A rankerSite is shared by every core in which the site
// is clean, and a clean site's rows are identical in all of their graphs,
// so which one builds it cannot matter; the same TransitionMatrix comes
// out either way.
func (st *rankerSite) getChain(dg *graph.DocGraph, s graph.SiteID, keep bool) *pagerank.Chain {
	if c := st.chain.Load(); c != nil {
		return c
	}
	if !keep {
		return buildChain(dg, s)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if c := st.chain.Load(); c != nil {
		return c
	}
	c := buildChain(dg, s)
	st.chain.Store(c)
	return c
}

// rankerCore is the shared half of a Ranker: everything derived from the
// graph alone, none of it query-specific. Past its lazily built chains,
// each published once, the core is immutable, which is what lets any
// number of Share()d rankers serve queries over it concurrently. Sites
// are held by pointer so an incremental RebuildOn can share unchanged
// sites' structure (index, kept chain) between the old and the new core.
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
// answers repeated queries — uniform or personalized at either layer —
// with near-zero setup cost and no steady-state allocations beyond the
// returned WebResult header.
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

	// Reusable result buffers, rewritten by every Rank; docRank only
	// Rank fills, the first time it runs.
	docRank    matrix.Vector
	localRanks []matrix.Vector
	localIters []int
	errs       []error
	allSites   []int // 0, 1, …: the site list Rank and RankLocals solve
}

// NewRanker validates dg and precomputes the graph-only part of the
// layered ranking structure: the SiteGraph and every site's roster index
// (the site chain and the per-site CSR chains follow on the first Rank or
// on Prepare, so structure-only consumers like the distributed
// coordinator skip that cost). The DocGraph is readied up front (its
// digraph deduplicated), so neither Prepare's fan-out nor the per-query
// phase ever mutates shared graph state.
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
// NewRanker, shared with the incremental RebuildOn.
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
// before going concurrent) to build the shared pieces up front; left
// lazy, each is still built exactly once, by the first query that needs
// it, while the others wait for it.
func (r *Ranker) Share() *Ranker { return &Ranker{core: r.core} }

// Prepare eagerly builds and keeps every lazily constructed piece of the
// shared structure — the site-layer chain and each multi-document site's
// CSR transition matrix and PageRank chain — in parallel. After Prepare
// the core is immutable; queries only read it. It is for a core whose
// queries solve every site: the chains are a second copy of the
// intra-site links, which a core serving from kept solutions (a
// LocalEngine's default-parameter queries) never reads.
func (r *Ranker) Prepare() {
	c := r.core
	c.siteLayerChain()
	ForEachParallel(len(c.sites), 0, func(s int) {
		if st := c.sites[s]; st.fixed == nil {
			st.getChain(c.dg, graph.SiteID(s), true)
		}
	})
}

// Stale reports whether the DocGraph's digraph mutated after this
// Ranker's structure was precomputed (its Version advanced). A stale
// Ranker's subgraphs, chains and shard digests no longer describe the
// graph; Rank, RankLocals and RankSites refuse with ErrGraphMutated.
// Recover with a fresh NewRanker.
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
// piece an engine solves itself, on its own Ranker, while a fleet ranks
// the documents. The returned vector aliases solver scratch (valid until
// the next RankSites/Rank call); the int is the number of sweeps it took.
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

// ensureQueryState lazily builds this Ranker's private per-site result
// buffers, so structure-only consumers (the distributed coordinator ships
// subgraphs to workers and never ranks locally) don't pay for them. The
// NumDocs-long DocRank is Rank's alone: RankRefresh and RankLocals compose
// nothing.
func (r *Ranker) ensureQueryState() {
	if r.allSites != nil {
		return
	}
	r.solvers = make([]*pagerank.Solver, len(r.core.sites))
	r.localRanks = make([]matrix.Vector, len(r.core.sites))
	r.localIters = make([]int, len(r.core.sites))
	r.errs = make([]error, len(r.core.sites))
	r.allSites = make([]int, len(r.core.sites))
	for s := range r.allSites {
		r.allSites[s] = s
	}
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
	res, err := r.rankTwoLayer(r.allSites, &cfg, true)
	if err != nil {
		return nil, err
	}
	if r.docRank == nil {
		r.docRank = matrix.NewVector(r.core.dg.NumDocs())
	}
	composeDocRankInto(r.docRank, r.core.dg, res.SiteRank, res.LocalRanks)
	res.DocRank = r.docRank
	return res, nil
}

// rankTwoLayer is the two-layer query phase with the listed sites' local
// DocRanks solved afresh and every other site's taken as localRanks
// holds it; keep is getChain's. It composes nothing: its DocRank is nil.
func (r *Ranker) rankTwoLayer(sites []int, cfg *WebConfig, keep bool) (*WebResult, error) {
	siteRank, siteIters, err := r.RankSites(*cfg)
	if err != nil {
		return nil, err
	}
	if err := r.rankLocals(sites, cfg, keep); err != nil {
		return nil, err
	}
	return &WebResult{
		SiteRank:        siteRank,
		LocalRanks:      r.localRanks,
		SiteIterations:  siteIters,
		LocalIterations: r.localIters,
	}, nil
}

// rankLocals runs the listed sites' local DocRanks into this Ranker's
// buffers. The loop is data-parallel — every site solver is independent —
// and the single-worker case runs a plain loop: no goroutines, no
// closure, no allocations. keep is getChain's, for a site whose chain
// this Ranker has no solver over yet.
func (r *Ranker) rankLocals(sites []int, cfg *WebConfig, keep bool) error {
	errs := r.errs
	for s := range errs {
		errs[s] = nil
	}
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || len(sites) <= 1 {
		for _, s := range sites {
			r.rankLocal(s, cfg, keep)
		}
	} else {
		// The closure must capture a block-local copy: capturing cfg
		// itself would force it onto the heap for the serial path too,
		// breaking the zero-allocation budget.
		c := *cfg
		ForEachParallel(len(sites), workers, func(i int) {
			r.rankLocal(sites[i], &c, keep)
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
func (r *Ranker) rankLocal(s int, cfg *WebConfig, keep bool) {
	st := r.core.sites[s]
	if st.fixed != nil {
		r.localRanks[s] = st.fixed
		r.localIters[s] = 0
		return
	}
	if r.solvers[s] == nil {
		// First query on this Ranker builds its private solver over the
		// site's chain; each site is owned by exactly one goroutine of
		// the fan-out, and the barrier at its end publishes the solver
		// for later queries.
		r.solvers[s] = st.getChain(r.core.dg, graph.SiteID(s), keep).NewSolver()
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

// RankRefresh is the Update-path refresh solve: like Rank, but composing
// no DocRank (the result's is nil; ComposeDocRank makes one from its
// SiteRank and LocalRanks), and a site
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
//
// A site it solves uses the core's kept chain where a query (or Prepare)
// left one; otherwise it solves on a chain of this Ranker's own, which
// the core does not keep: the refresh's solutions are what a snapshot
// serves from, and the chain they were solved on goes with this Ranker.
func (r *Ranker) RankRefresh(changed []graph.SiteID, cfg WebConfig) (*WebResult, error) {
	r.ensureQueryState()
	changedSet := make(map[int]bool, len(changed))
	for _, s := range changed {
		changedSet[int(s)] = true
	}
	var pending []int
	for s, st := range r.core.sites {
		if st.fixed == nil && !changedSet[s] && s < len(cfg.LocalStarts) && len(cfg.LocalStarts[s]) == st.idx.Len() {
			r.localRanks[s] = cfg.LocalStarts[s]
			r.localIters[s] = 0
			continue
		}
		pending = append(pending, s)
	}
	return r.rankTwoLayer(pending, &cfg, false)
}

// RankLocals solves every site's local DocRank against the precomputed
// structure (in parallel when cfg.Parallelism allows), keeping the chains
// it solves on as Rank does, and returns them with their sweep counts —
// the document layer alone, for a caller that weights the sites itself
// (the three-layer model's DomainRank·SiteEntry, or a site layer solved
// elsewhere) and composes with ComposeDocRank. cfg's site-layer fields
// are not read. Both slices alias the Ranker's scratch (Rank's contract).
func (r *Ranker) RankLocals(cfg WebConfig) ([]matrix.Vector, []int, error) {
	if r.Stale() {
		return nil, nil, ErrGraphMutated
	}
	r.ensureQueryState()
	if err := r.rankLocals(r.allSites, &cfg, true); err != nil {
		return nil, nil, err
	}
	return r.localRanks, r.localIters, nil
}
