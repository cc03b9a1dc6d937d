// Package blockrank implements the BlockRank algorithm of Kamvar,
// Haveliwala, Manning and Golub ("Exploiting the block structure of the
// web for computing PageRank", 2003) — reference [9] of the paper and its
// closest prior work. The paper's §3.2 contrasts the two designs:
// BlockRank weighs the edge between two blocks by the *local PageRank* of
// the source pages, so the block-level computation must wait for all local
// computations (serialized); the LMM SiteGraph uses raw SiteLink counts,
// so SiteRank and local DocRanks can run in parallel.
//
// BlockRank is an accelerator, not a final ranking: the composed
// block×local vector seeds a standard global PageRank iteration. Both the
// seed vector and the refined global ranking are exposed so experiments
// can compare convergence behaviour and ranking quality.
package blockrank

import (
	"fmt"

	"lmmrank/internal/graph"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
)

// Config parameterizes BlockRank.
type Config struct {
	// Damping is the PageRank damping factor (0 = 0.85).
	Damping float64
	// Tol is the power-method tolerance (0 = matrix.DefaultTol).
	Tol float64
	// MaxIter bounds each power run (0 = matrix.DefaultMaxIter).
	MaxIter int
	// SkipGlobalRefine stops after composing the seed vector (the pure
	// block approximation), without the global PageRank pass.
	SkipGlobalRefine bool
}

func (c Config) pagerankConfig() pagerank.Config {
	return pagerank.Config{Damping: c.Damping, Tol: c.Tol, MaxIter: c.MaxIter}
}

// Result reports a BlockRank computation.
type Result struct {
	// BlockRank holds the block-level ranking (one entry per site).
	BlockRank matrix.Vector
	// LocalRanks holds per-block local PageRank vectors in local order.
	LocalRanks []matrix.Vector
	// Seed is the composed approximation blockRank(b)·local_b(d).
	Seed matrix.Vector
	// Scores is the final global ranking: equal to Seed when
	// SkipGlobalRefine, otherwise the global PageRank started from Seed.
	Scores matrix.Vector
	// GlobalIterations counts the refinement iterations (0 when skipped).
	GlobalIterations int
}

// Compute runs BlockRank over a DocGraph whose blocks are the Web sites.
//
// Steps (following the 2003 report): (1) local PageRank per block;
// (2) block graph whose edge b→c aggregates, for every cross-block link
// d→d', the local PageRank of d — this is the data dependency the paper
// points out; (3) block-level PageRank; (4) composition into a seed;
// (5) standard global PageRank from the seed.
func Compute(dg *graph.DocGraph, cfg Config) (*Result, error) {
	if err := dg.Validate(); err != nil {
		return nil, fmt.Errorf("blockrank: %w", err)
	}
	ns := dg.NumSites()
	if ns == 0 {
		return nil, fmt.Errorf("blockrank: empty graph")
	}

	// Step 1: local PageRanks (identical to the LMM's step 3).
	local := make([]matrix.Vector, ns)
	for s := 0; s < ns; s++ {
		sub, _ := dg.LocalSubgraph(graph.SiteID(s))
		switch sub.NumNodes() {
		case 0:
			local[s] = matrix.Vector{}
		case 1:
			local[s] = matrix.Vector{1}
		default:
			res, err := pagerank.Graph(sub, cfg.pagerankConfig())
			if err != nil {
				return nil, fmt.Errorf("blockrank: local rank of block %d: %w", s, err)
			}
			local[s] = res.Scores
		}
	}

	// Step 2: block graph weighted by source local PageRank. This is the
	// serialization point: the weights consume step 1's output.
	bg := graph.NewDigraph(ns)
	dg.G.EachEdgeAll(func(from int, e graph.Edge) {
		sFrom := int(dg.SiteOf(graph.DocID(from)))
		sTo := int(dg.SiteOf(graph.DocID(e.To)))
		w := local[sFrom][dg.LocalOf(graph.DocID(from))] * e.Weight
		if w > 0 {
			bg.AddEdge(sFrom, sTo, w)
		}
	})
	bg.Dedupe()

	// Step 3: block-level PageRank.
	blockRes, err := pagerank.Graph(bg, cfg.pagerankConfig())
	if err != nil {
		return nil, fmt.Errorf("blockrank: block layer: %w", err)
	}

	// Step 4: compose the seed.
	seed := matrix.NewVector(dg.NumDocs())
	for s := 0; s < ns; s++ {
		for i, d := range dg.Sites[s].Docs {
			seed[d] = blockRes.Scores[s] * local[s][i]
		}
	}

	out := &Result{
		BlockRank:  blockRes.Scores,
		LocalRanks: local,
		Seed:       seed.Clone(),
		Scores:     seed,
	}
	if cfg.SkipGlobalRefine {
		return out, nil
	}

	// Step 5: global refinement seeded by the approximation.
	refineCfg := cfg.pagerankConfig()
	refineCfg.Start = seed
	globalRes, err := pagerank.Graph(dg.G, refineCfg)
	if err != nil {
		return nil, fmt.Errorf("blockrank: global refine: %w", err)
	}
	out.Scores = globalRes.Scores
	out.GlobalIterations = globalRes.Iterations
	return out, nil
}
