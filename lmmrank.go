package lmmrank

import (
	"context"
	"io"

	"lmmrank/internal/dist/cluster"
	"lmmrank/internal/dist/coordinator"
	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
	"lmmrank/internal/rankutil"
	"lmmrank/internal/webgen"
)

// Core model types (paper §2).
type (
	// Model is the Layered Markov Model 6-tuple of Definition 1.
	Model = lmm.Model
	// Config parameterizes LMM rank computations (α, tolerance, budget).
	Config = lmm.Config
	// Ranking is a scored, ordered set of global system states.
	Ranking = lmm.Ranking
	// State is a (phase, sub-state) pair, 0-based.
	State = lmm.State
	// Hierarchy is the multi-layer generalization of §2.2.
	Hierarchy = lmm.Hierarchy
	// Vector is a dense probability/score vector.
	Vector = matrix.Vector
)

// Web ranking types (paper §3).
type (
	// DocGraph is the document-level Web graph with its site mapping.
	DocGraph = graph.DocGraph
	// SiteGraph is the site-level aggregation.
	SiteGraph = graph.SiteGraph
	// SiteGraphOptions controls SiteLink counting.
	SiteGraphOptions = graph.SiteGraphOptions
	// Digraph is a weighted directed graph.
	Digraph = graph.Digraph
	// DocID identifies a document; SiteID a site.
	DocID = graph.DocID
	// SiteID identifies a Web site.
	SiteID = graph.SiteID
	// GraphBuilder assembles DocGraphs from URLs and links.
	GraphBuilder = graph.Builder
	// WebConfig parameterizes the layered DocRank pipeline.
	WebConfig = lmm.WebConfig
	// WebResult is the pipeline outcome (DocRank, SiteRank, local ranks).
	WebResult = lmm.WebResult
)

// Synthetic-web types.
type (
	// CampusWebConfig parameterizes the synthetic campus-web generator.
	CampusWebConfig = webgen.Config
	// CampusWeb is a generated web with ground-truth page classes.
	CampusWeb = webgen.Web
	// PageClass labels a generated page's ground-truth role.
	PageClass = webgen.PageClass
)

// Distributed runtime types.
type (
	// Cluster is an in-process coordinator + worker fleet on loopback.
	Cluster = cluster.Local
	// DistConfig parameterizes a distributed ranking run.
	DistConfig = coordinator.Config
	// DistResult is the outcome of a distributed run with cost stats.
	DistResult = coordinator.Result
	// DistWarm is what a distributed run starts from knowing (DistWarm{}
	// = nothing): local DocRanks, and the shard digests of the previous
	// run's DistResult.Digests.
	DistWarm = coordinator.Warm
	// DistRetryPolicy bounds how many worker losses one distributed run
	// absorbs by reassigning shards to survivors.
	DistRetryPolicy = coordinator.RetryPolicy
	// DistStats breaks down a distributed run's cost: timings, measured
	// wire traffic, losses/reassignments/retries, cache hits and bytes
	// saved.
	DistStats = coordinator.Stats
	// SiteRankMode named how a distributed run computed its site chain's
	// stationary distribution. No run solves it: its caller does.
	//
	// Deprecated: ignored.
	SiteRankMode = coordinator.SiteRankMode
)

// The modes DistConfig.SiteRank took.
//
// Deprecated: ignored.
const (
	SiteRankCentral = coordinator.SiteRankCentral
	SiteRankSync    = coordinator.SiteRankSync
)

// Errors re-exported for errors.Is checks.
var (
	// ErrNotPrimitive marks approaches whose primitivity hypothesis
	// (Theorem 2) fails.
	ErrNotPrimitive = lmm.ErrNotPrimitive
	// ErrInvalidModel marks structurally broken models.
	ErrInvalidModel = lmm.ErrInvalidModel
)

// NewModel builds and validates a Layered Markov Model from a phase
// matrix and per-phase sub-state matrices.
func NewModel(y *matrix.Dense, u []*matrix.Dense) (*Model, error) {
	return lmm.NewModel(y, u)
}

// PaperExample returns the 12-state worked example of the paper's §2.3.
func PaperExample() *Model { return lmm.PaperExample() }

// LayeredMethod is Approach 4 — the paper's decentralized algorithm:
// plain stationary distribution of the primitive phase matrix composed
// with per-phase local PageRanks. Equals Approach2 by the Partition
// Theorem.
func LayeredMethod(m *Model, cfg Config) (*Ranking, error) {
	return lmm.LayeredMethod(m, cfg)
}

// Approach1 applies standard PageRank to the assembled global matrix W.
func Approach1(m *Model, cfg Config) (*Ranking, error) { return lmm.Approach1(m, cfg) }

// Approach2 runs the plain power method on W (requires primitivity).
func Approach2(m *Model, cfg Config) (*Ranking, error) { return lmm.Approach2(m, cfg) }

// Approach3 composes the adjusted PageRank of Y with the local ranks.
func Approach3(m *Model, cfg Config) (*Ranking, error) { return lmm.Approach3(m, cfg) }

// ComputeAll runs all four approaches sharing one local-rank computation.
func ComputeAll(m *Model, cfg Config) (*lmm.All, error) { return lmm.ComputeAll(m, cfg) }

// PartitionGap measures ‖Approach2 − LayeredMethod‖₁ on a model —
// Theorem 2 says it is zero up to solver tolerance.
func PartitionGap(m *Model, cfg Config) (float64, error) { return lmm.PartitionGap(m, cfg) }

// LayeredHierarchyRank ranks the leaves of a multi-layer hierarchy.
func LayeredHierarchyRank(h *Hierarchy, cfg Config) (Vector, error) {
	return lmm.LayeredHierarchyRank(h, cfg)
}

// NewGraphBuilder returns an empty DocGraph builder; documents are
// assigned to sites by URL host.
func NewGraphBuilder() *GraphBuilder { return graph.NewBuilder() }

// DeriveSiteGraph aggregates a DocGraph at the site level (§3.2 step 2).
func DeriveSiteGraph(dg *DocGraph, opts SiteGraphOptions) *SiteGraph {
	return graph.DeriveSiteGraph(dg, opts)
}

// LayeredDocRank runs the §3.2 pipeline: SiteRank × independent local
// DocRanks, composed by the Partition Theorem.
//
// It is the one-shot form of a Ranker: the query is checked as an
// Engine checks it, then a throwaway Ranker solves every site once, so
// the result is caller-owned. Callers ranking the same graph repeatedly
// should hold a LocalEngine (or, for single-goroutine serving, a Ranker)
// instead.
func LayeredDocRank(dg *DocGraph, cfg WebConfig) (*WebResult, error) {
	ctx, err := oneShot(dg, cfg, Query{
		Damping:             cfg.Damping,
		Tol:                 cfg.Tol,
		MaxIter:             cfg.MaxIter,
		SitePersonalization: cfg.SitePersonalization,
		DocPersonalization:  cfg.DocPersonalization,
	})
	if err != nil {
		return nil, err
	}
	res, err := lmm.LayeredDocRank(dg, cfg)
	if err != nil {
		return nil, normalizeCtxErr(ctx, err)
	}
	return res, nil
}

// oneShot is the front a one-shot call passes before it solves: a
// context already done, or a query an Engine would refuse, fails here as
// it would at Engine.Rank. It returns the call's context, never nil.
func oneShot(dg *DocGraph, cfg WebConfig, q Query) (context.Context, error) {
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := q.validate(); err != nil {
		return nil, err
	}
	return ctx, q.fits(dg)
}

// Ranker is the precomputed serving form of the layered pipeline: build
// it once per graph, then answer repeated Rank queries (uniform or
// personalized) with near-zero setup cost and no steady-state
// allocations. Results alias the Ranker's scratch — see lmm.Ranker for
// the reuse contract.
//
// Deprecated-in-spirit for serving: Ranker is the single-goroutine,
// scratch-aliasing expert path. Most callers want Engine — NewLocalEngine
// wraps a pool of Rankers behind the same precomputation and returns
// caller-owned results, safely concurrent and context-aware.
type Ranker = lmm.Ranker

// RankerOptions fixes the graph-derivation choices a Ranker precomputes.
type RankerOptions = lmm.RankerOptions

// NewRanker precomputes the layered ranking structure of a DocGraph:
// the SiteGraph and each site's roster index now, the per-site
// transition matrices on Prepare or the first Rank.
func NewRanker(dg *DocGraph, opts RankerOptions) (*Ranker, error) {
	return lmm.NewRanker(dg, opts)
}

// Web3Result is the outcome of the three-layer (domain→site→page)
// pipeline.
type Web3Result = lmm.Web3Result

// LayeredDocRank3 ranks documents with the three-layer model of the §2.2
// multi-layer extension; domainOf groups sites into domains (nil = last
// two host labels). With one domain it reduces exactly to LayeredDocRank.
//
// Like LayeredDocRank, it checks the query as an Engine checks a
// ThreeLayer Query and then solves once on a throwaway Ranker: the
// result is caller-owned.
func LayeredDocRank3(dg *DocGraph, domainOf func(siteName string) string, cfg WebConfig) (*Web3Result, error) {
	ctx, err := oneShot(dg, cfg, Query{
		Damping:            cfg.Damping,
		Tol:                cfg.Tol,
		MaxIter:            cfg.MaxIter,
		DocPersonalization: cfg.DocPersonalization,
		ThreeLayer:         true,
	})
	if err != nil {
		return nil, err
	}
	res, err := lmm.LayeredDocRank3(dg, domainOf, cfg)
	if err != nil {
		return nil, normalizeCtxErr(ctx, err)
	}
	return res, nil
}

// PageRank computes the flat PageRank baseline over the whole DocGraph.
// The returned vector is caller-owned (cloned off any solver state).
func PageRank(dg *DocGraph, cfg WebConfig) (Vector, error) {
	res, err := lmm.GlobalPageRank(dg, cfg)
	if err != nil {
		return nil, err
	}
	// The one-shot solve allocates fresh iterate buffers today, but the
	// public contract is ownership, not implementation: clone so no
	// future solver-scratch reuse can leak through this boundary.
	return res.Scores.Clone(), nil
}

// PageRankGraph computes PageRank of a bare directed graph. The
// returned vector is caller-owned (cloned off any solver state).
func PageRankGraph(g *Digraph, damping float64) (Vector, error) {
	res, err := pagerank.Graph(g, pagerank.Config{Damping: damping})
	if err != nil {
		return nil, err
	}
	return res.Scores.Clone(), nil
}

// GenerateCampusWeb builds a synthetic campus web with ground-truth spam
// labels (the evaluation substrate; see internal/webgen's package comment).
func GenerateCampusWeb(cfg CampusWebConfig) *CampusWeb { return webgen.Generate(cfg) }

// ReadGraph parses the text graph format; WriteGraph emits it.
func ReadGraph(r io.Reader) (*DocGraph, error) { return graph.ReadText(r) }

// WriteGraph serializes a DocGraph in the text format.
func WriteGraph(w io.Writer, dg *DocGraph) error { return graph.WriteText(w, dg) }

// ReadGraphBinary reads a graph file — the checked, fixed-width
// little-endian format of docs/ARCHITECTURE.md, "The graph file" —
// consuming exactly the file's bytes from r. The result keeps the file's
// front-coded URL section as its URL arena; DocGraph.URL decodes a fresh
// string, so keeping a URL keeps nothing of the graph.
func ReadGraphBinary(r io.Reader) (*DocGraph, error) { return graph.DecodeBinary(r) }

// WriteGraphBinary serializes a DocGraph as a graph file.
func WriteGraphBinary(w io.Writer, dg *DocGraph) error { return graph.EncodeBinary(w, dg) }

// StartCluster launches an in-process distributed fleet of n workers on
// loopback TCP with a connected coordinator.
func StartCluster(n int) (*Cluster, error) { return cluster.StartLocal(n) }

// ErrStaleResult marks incremental updates that need a full recompute.
var ErrStaleResult = lmm.ErrStaleResult

// ErrGraphMutated marks queries and Updates against an engine or Ranker
// whose DocGraph was mutated in place, not through Engine.Update: the
// precomputed structure is stale and nothing recorded what changed, so
// the call is refused instead of silently serving a stale ranking. Check
// with errors.Is; recover by building a new engine.
var ErrGraphMutated = lmm.ErrGraphMutated

// DocScore pairs a document with its score for top-k reporting.
type DocScore struct {
	Doc   DocID
	URL   string
	Score float64
}

// TopDocs returns the k best documents of a scored DocGraph with their
// URLs, in descending score order.
func TopDocs(dg *DocGraph, scores Vector, k int) []DocScore {
	top := rankutil.TopK(scores, k)
	out := make([]DocScore, len(top))
	for i, e := range top {
		out[i] = DocScore{Doc: DocID(e.Index), URL: dg.URL(DocID(e.Index)), Score: e.Score}
	}
	return out
}

// KendallTau re-exports the rank-correlation metric for comparing two
// score vectors over the same documents.
func KendallTau(a, b Vector) float64 { return rankutil.KendallTau(a, b) }
