package lmm

import (
	"lmmrank/internal/graph"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
)

// SubgraphSolver is the local-DocRank chain of one standalone site
// subgraph — the per-shard analogue of Ranker's per-site chains.
// Distributed workers hold one per cached shard so repeated coordinator
// runs reuse the CSR transition matrix instead of rebuilding it: a link
// costs it its 2-byte source on a site of at most matrix.MaxNarrowOrder
// documents.
//
// It is a site chain with no scratch: each Rank sweeps a solver made for
// that call, whose one vector — the iterate, 8 bytes a document; the
// uniform teleport is a constant — is the one it returns, the caller's
// own, and any number of goroutines may Rank one SubgraphSolver at once.
// Construction builds sub's transition matrix (a mutation of the graph's
// cached state); mutate the subgraph afterwards and the solver is stale
// — build a new one.
type SubgraphSolver struct {
	// fixed is the constant local rank of 0/1-document subgraphs, which
	// need no iteration at all (the same special case Ranker
	// applies).
	fixed matrix.Vector
	chain *pagerank.Chain
}

// NewSubgraphSolver precomputes the ranking state of one site subgraph.
func NewSubgraphSolver(sub *graph.Digraph) *SubgraphSolver {
	switch sub.NumNodes() {
	case 0:
		return &SubgraphSolver{fixed: matrix.Vector{}}
	case 1:
		// A single-document site trivially holds all local mass.
		return &SubgraphSolver{fixed: matrix.Vector{1}}
	}
	return &SubgraphSolver{chain: pagerank.NewChain(sub.TransitionMatrix())}
}

// Rank computes the subgraph's local DocRank into a vector it allocates
// and does not keep.
func (s *SubgraphSolver) Rank(cfg WebConfig) (matrix.Vector, int, error) {
	if s.fixed != nil {
		return s.fixed.Clone(), 0, nil
	}
	res, err := s.chain.NewSolver().Solve(pagerank.Config{
		Damping: cfg.Damping,
		Tol:     cfg.Tol,
		MaxIter: cfg.MaxIter,
		Ctx:     cfg.Ctx,
	})
	if err != nil {
		return nil, 0, err
	}
	return res.Scores, res.Iterations, nil
}
