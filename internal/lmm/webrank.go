package lmm

import (
	"context"
	"runtime"
	"sync"

	"lmmrank/internal/graph"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
)

// WebConfig parameterizes the §3.2 pipeline ("Layered Method for
// DocRank") on a DocGraph.
type WebConfig struct {
	// Damping is the PageRank damping factor / gatekeeper α. Zero is a
	// sentinel selecting pagerank.DefaultDamping (0.85) — an explicit
	// damping of exactly 0 cannot be requested (it would make the chain
	// pure teleport anyway); tiny positive values are honored as given.
	Damping float64
	// Tol and MaxIter bound each solve's sweeps (0 = package defaults).
	Tol     float64
	MaxIter int
	// SiteGraph controls SiteLink aggregation (§3.1).
	SiteGraph graph.SiteGraphOptions
	// SitePersonalization optionally biases the site layer (length
	// NumSites); nil = uniform. This is "personalization at the higher
	// layer" of §3.2.
	SitePersonalization matrix.Vector
	// DocPersonalization optionally biases individual sites' document
	// layers: per-site teleport vectors in local-index order. Missing
	// sites use uniform. This is "personalization at the lower layer".
	DocPersonalization map[graph.SiteID]matrix.Vector
	// Parallelism caps the number of concurrent local DocRank
	// computations (0 = GOMAXPROCS). Step 3 of §3.2 "can be completely
	// decentralized"; within one process that means data-parallel.
	Parallelism int
	// SiteStart and LocalStarts optionally seed the solves with
	// a previous solution — the warm-start half of the churn path: after
	// a small graph change, the old SiteRank and the unchanged sites'
	// local DocRanks are excellent initial iterates, cutting iterations
	// roughly in proportion to how little moved. Both are read-only
	// (copied into solver scratch, never mutated) and validated by shape:
	// a SiteStart whose length differs from the site count, or a
	// LocalStarts[s] whose length differs from site s's document count,
	// is silently ignored (cold uniform start) rather than erroring —
	// seeds are hints, not inputs.
	SiteStart   matrix.Vector
	LocalStarts []matrix.Vector
	// Ctx, when non-nil, cancels the pipeline cooperatively: every power
	// iteration (site layer and each local DocRank) checks it and a
	// cancelled or expired context aborts mid-run with the context's
	// error. A nil Ctx never cancels.
	Ctx context.Context
}

// WebResult is the outcome of the layered DocRank pipeline.
//
// Aliasing: a WebResult returned by Ranker.Rank aliases the Ranker's
// internal scratch — its vectors are valid only until the next
// Rank/RankSites call on the same Ranker; clone them (or use the
// one-shot LayeredDocRank, whose throwaway Ranker makes the result safe
// to retain) to keep a result across queries.
type WebResult struct {
	// DocRank holds the final global ranking per DocID — the paper's
	// DocRank(G_D) = (πS(s1)·πD(s1)', …, πS(sNS)·πD(sNS)')'.
	DocRank matrix.Vector
	// SiteRank holds πS per SiteID.
	SiteRank matrix.Vector
	// LocalRanks holds each site's local DocRank in local-index order
	// (aligned with graph.DocGraph.Sites[s].Docs).
	LocalRanks []matrix.Vector
	// SiteIterations and LocalIterations count pagerank.Solver's sweeps,
	// used by the complexity experiments (E6).
	SiteIterations  int
	LocalIterations []int
}

// LayeredDocRank executes the five steps of §3.2 on a document graph:
// derive the SiteGraph, compute the SiteRank πS = PageRank(Mˆ(G_S)),
// compute each site's local DocRank πD(s) = PageRank(Mˆ(G^s_d))
// independently (in parallel), and compose the global DocRank by the
// Partition Theorem.
//
// It is the one-shot form of Ranker: a throwaway Ranker is built and
// queried once, so the returned WebResult is safe to retain. Callers
// ranking the same graph repeatedly (serving, personalization sweeps)
// should hold a Ranker instead and skip the per-call precomputation.
func LayeredDocRank(dg *graph.DocGraph, cfg WebConfig) (*WebResult, error) {
	r, err := NewRanker(dg, RankerOptions{SiteGraph: cfg.SiteGraph})
	if err != nil {
		// NewRanker errors carry their own "lmm: ranker:" prefix.
		return nil, err
	}
	return r.Rank(cfg)
}

// ComposeDocRank applies the Partition Theorem's composition (§3.2 step
// 5): DocRank[d] = siteWeights[site(d)] · localRanks[site(d)][i], with
// i the local index of d. The weights are πS for the two-layer method,
// or any per-site weight (e.g. DomainRank·SiteEntry for three layers).
// Shared by the in-process pipelines and the distributed coordinator so
// the composition step cannot diverge between them.
func ComposeDocRank(dg *graph.DocGraph, siteWeights matrix.Vector, localRanks []matrix.Vector) matrix.Vector {
	out := matrix.NewVector(dg.NumDocs())
	composeDocRankInto(out, dg, siteWeights, localRanks)
	return out
}

// composeDocRankInto is ComposeDocRank writing into a caller-owned
// vector, the allocation-free form Ranker.Rank reuses every query.
func composeDocRankInto(out matrix.Vector, dg *graph.DocGraph, siteWeights matrix.Vector, localRanks []matrix.Vector) {
	for s := range dg.Sites {
		w := siteWeights[s]
		for i, d := range dg.Sites[s].Docs {
			out[d] = w * localRanks[s][i]
		}
	}
}

// ForEachParallel runs fn(i) for every i in [0,n) across a capped
// goroutine pool (workers <= 0 selects GOMAXPROCS). A single worker
// runs inline: no goroutines, no channel, no allocations — the shape
// the steady-state serving path relies on at GOMAXPROCS = 1.
func ForEachParallel(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// GlobalPageRank is the flat baseline of Figure 3: classical PageRank over
// the whole DocGraph, ignoring site structure.
func GlobalPageRank(dg *graph.DocGraph, cfg WebConfig) (pagerank.Result, error) {
	return pagerank.Graph(dg.G, pagerank.Config{
		Damping: cfg.Damping,
		Tol:     cfg.Tol,
		MaxIter: cfg.MaxIter,
		Ctx:     cfg.Ctx,
	})
}
