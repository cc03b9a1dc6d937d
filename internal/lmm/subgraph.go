package lmm

import (
	"lmmrank/internal/graph"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
)

// SubgraphSolver is the reusable local-DocRank state of one standalone
// site subgraph — the per-shard analogue of Ranker's per-site solvers.
// Distributed workers hold one per cached shard so repeated coordinator
// runs reuse the CSR transition matrix and the solver's scratch vectors
// instead of rebuilding them every run.
//
// Construction captures sub by reference and builds its transition
// matrix (a mutation of the graph's cached state); mutate the subgraph
// afterwards and the solver is stale — build a new one. The vector
// returned by Rank aliases internal scratch, valid until the next Rank
// on the same solver; clone to retain. A SubgraphSolver is not safe for
// concurrent use.
type SubgraphSolver struct {
	// fixed is the constant local rank of 0/1-document subgraphs, which
	// need no iteration at all (the same special case Ranker
	// applies).
	fixed  matrix.Vector
	solver *pagerank.Solver
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
	return &SubgraphSolver{solver: pagerank.NewSolver(sub.TransitionMatrix())}
}

// Rank computes the subgraph's local DocRank, reusing all internal
// buffers. The result aliases
// solver scratch — see the type comment.
func (s *SubgraphSolver) Rank(cfg WebConfig) (matrix.Vector, int, error) {
	if s.fixed != nil {
		return s.fixed, 0, nil
	}
	res, err := s.solver.Solve(pagerank.Config{
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
