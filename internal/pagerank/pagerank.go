// Package pagerank implements the classical PageRank algorithm the paper
// uses both as its baseline (Figure 3) and as the DocRank/SiteRank building
// block of the Layered Method (§3.2): the maximal-irreducibility adjustment
// Mˆ = f·M + (1−f)·e·v' of eq. (1), with the standard dangling-node
// convention, personalized teleport vectors, and a sparse operator form
// that never materializes Mˆ.
package pagerank

import (
	"context"
	"errors"
	"fmt"

	"lmmrank/internal/graph"
	"lmmrank/internal/markov"
	"lmmrank/internal/matrix"
)

// DefaultDamping is the damping factor f of eq. (1). The worked example of
// the paper's §2.3 reproduces exactly with 0.85, the value PageRank's
// authors recommend.
const DefaultDamping = 0.85

// ErrBadConfig is returned (wrapped) for invalid configuration values.
var ErrBadConfig = errors.New("pagerank: invalid configuration")

// Config parameterizes a PageRank computation. The zero value selects the
// standard setup: f = 0.85, uniform personalization, tolerance and
// iteration budget from package matrix.
type Config struct {
	// Damping is the probability f of following a link rather than
	// teleporting. Zero is a sentinel selecting DefaultDamping (0.85) —
	// an explicit damping of exactly 0 cannot be requested, while tiny
	// positive values are honored. Must otherwise lie in (0, 1).
	Damping float64
	// Personalization is the teleport distribution v; nil selects uniform.
	// It is the hook for personalized rankings (§2.1: "personalization of
	// rankings can be obtained by replacing e' with a personalized
	// distribution vector").
	Personalization matrix.Vector
	// Tol is the threshold on Result.Residual (0 = matrix.DefaultTol).
	Tol float64
	// MaxIter bounds sweeps, or power steps (0 = matrix.DefaultMaxIter).
	MaxIter int
	// Start optionally seeds the iteration, e.g. with a previous ranking
	// for incremental recomputation.
	Start matrix.Vector
	// Ctx, when non-nil, cancels the iteration cooperatively: a
	// cancelled or expired context aborts mid-run and the context's error
	// is returned (wrapped). A nil Ctx never cancels.
	Ctx context.Context
}

func (c Config) damping() float64 {
	if c.Damping == 0 {
		return DefaultDamping
	}
	return c.Damping
}

func (c Config) validate(n int) error {
	if f := c.damping(); !(f > 0 && f < 1) || !(c.Tol >= 0) || c.MaxIter < 0 {
		return fmt.Errorf("%w: damping %g, tolerance %g or iteration budget %d out of range (damping in (0,1), the others ≥ 0)", ErrBadConfig, f, c.Tol, c.MaxIter)
	}
	if c.Personalization != nil {
		if len(c.Personalization) != n {
			return fmt.Errorf("%w: personalization length %d vs order %d",
				ErrBadConfig, len(c.Personalization), n)
		}
		if !c.Personalization.IsDistribution(1e-6) {
			return fmt.Errorf("%w: personalization is not a probability distribution", ErrBadConfig)
		}
	}
	return nil
}

func (c Config) teleport(n int) matrix.Vector {
	return seed(matrix.NewVector(n), c.Personalization)
}

func (c Config) powerOptions() matrix.PowerOptions {
	return matrix.PowerOptions{Tol: c.Tol, MaxIter: c.MaxIter, Start: c.Start, Ctx: c.Ctx}
}

// Result is the outcome of a PageRank computation.
type Result struct {
	// Scores is the PageRank vector, a probability distribution. When
	// the Result comes from Solver.Solve, Scores aliases the solver's
	// scratch and is valid only until the next Solve on that solver;
	// clone to retain. One-shot entry points (Dense, Sparse, Graph)
	// return freshly allocated vectors.
	Scores matrix.Vector
	// Iterations counts the in-place sweeps (for Dense: power steps).
	Iterations int
	// Converged reports whether the tolerance was met within the budget.
	Converged bool
	// Residual is the L1 change the last sweep made to the iterate, over
	// its mass (for Dense: between the last two power iterates). One more
	// power step would move the iterate by no more, and Mˆ contracts
	// zero-sum vectors by f, so a converged result has ‖Scores − x*‖₁ ≤
	// Residual/(1−f) ≤ Tol/(1−f). The power step's bound was f·Tol/(1−f),
	// at most 1/f tighter; its measured error at a stop is the larger on
	// every chain tried (docs/ARCHITECTURE.md, "The solve: in-place sweeps").
	Residual float64
}

// Dense computes PageRank of a small dense transition matrix by explicitly
// building Mˆ (eq. 1) and running the power method. Dangling rows are
// replaced by the teleport vector first. Intended for the worked example
// and unit tests; use Sparse or Graph for web-scale inputs.
func Dense(m *matrix.Dense, cfg Config) (Result, error) {
	n := m.Order()
	if err := cfg.validate(n); err != nil {
		return Result{}, err
	}
	mhat := markov.MaximalIrreducible(m, cfg.damping(), cfg.teleport(n))
	res, err := matrix.PowerLeft(mhat, cfg.powerOptions())
	if err != nil {
		return Result{}, fmt.Errorf("pagerank: %w", err)
	}
	return Result{
		Scores:     res.Vector,
		Iterations: res.Iterations,
		Converged:  res.Converged,
		Residual:   res.Residual,
	}, nil
}

// Operator is the damped chain as a matrix-free power step, the reference
// Solver's sweeps are measured against; no solve here runs it. It applies
//
//	y' = f·x'M + (f·Σ_{i dangling} x_i + (1−f))·v'
//
// which equals left-multiplication by Mˆ with dangling rows replaced by v,
// without materializing the dense rank-one terms.
//
// The apply is fully fused: one pass over x accumulates both its total
// mass and the dangling mass (the dangling list is ascending, so a
// two-pointer walk folds the two sums together), and the pull-based SpMV
// writes f·(x'M)[j] + coeff·v[j] directly — no separate scale and add
// passes. Implementing matrix.FusedLeftMultiplier, it also hands the
// iterate sum to the power method for single-pass normalization.
type Operator struct {
	m        *matrix.CSR
	f        float64
	v        matrix.Vector
	dangling []int
}

var _ matrix.FusedLeftMultiplier = (*Operator)(nil)

// NewOperator builds the damped operator for a row-normalized sparse
// chain. Rows of m must each sum to 1 or 0 (dangling).
func NewOperator(m *matrix.CSR, f float64, v matrix.Vector) (*Operator, error) {
	n := m.Order()
	if f <= 0 || f >= 1 {
		return nil, fmt.Errorf("%w: damping %g outside (0,1)", ErrBadConfig, f)
	}
	if v == nil {
		v = matrix.Uniform(n)
	}
	if len(v) != n {
		return nil, fmt.Errorf("%w: teleport length %d vs order %d", ErrBadConfig, len(v), n)
	}
	return &Operator{m: m, f: f, v: v, dangling: m.DanglingRows()}, nil
}

// Order implements matrix.LeftMultiplier.
func (o *Operator) Order() int { return o.m.Order() }

// MulVecLeft implements matrix.LeftMultiplier.
func (o *Operator) MulVecLeft(dst, x matrix.Vector) {
	o.MulVecLeftFused(dst, x)
}

// MulVecLeftFused implements matrix.FusedLeftMultiplier: the damped
// apply in a single SpMV sweep, returning the sum of dst.
func (o *Operator) MulVecLeftFused(dst, x matrix.Vector) float64 {
	// One pass over x: total mass and dangling mass together. The
	// dangling indices are ascending, so a cursor into them advances in
	// lockstep with the x scan.
	var xsum, dangMass float64
	di := 0
	for i, xi := range x {
		xsum += xi
		if di < len(o.dangling) && o.dangling[di] == i {
			dangMass += xi
			di++
		}
	}
	// Total teleport coefficient: damped dangling mass plus the global
	// (1−f) jump, scaled by the mass of x (which the power method keeps
	// at 1; using the full sum keeps the operator exact for any input).
	coeff := o.f*dangMass + (1-o.f)*xsum
	return o.m.MulVecLeftDamped(dst, x, o.f, coeff, o.v)
}

// Sparse computes PageRank of a sparse row-normalized transition matrix:
// one Solve on a throwaway Solver, so the Scores are the caller's alone.
func Sparse(m *matrix.CSR, cfg Config) (Result, error) {
	return NewSolver(m).Solve(cfg)
}

// Chain is the immutable, shareable half of a Solver: the row-normalized
// transition matrix, its dangling-row list and its self-loop weights. One
// Chain can back any number of Solvers concurrently — it is read-only
// after construction — so a serving engine precomputes one Chain per
// graph and hands each goroutine its own cheap Solver over it.
type Chain struct {
	m        *matrix.CSR
	dangling []int
	// diag[j] = M[j,j]; nil when no state links to itself (document chains).
	diag matrix.Vector
}

// NewChain precomputes the shareable PageRank state of the
// row-normalized chain m. The matrix is captured by reference and must
// not change while the chain is in use.
func NewChain(m *matrix.CSR) *Chain {
	return &Chain{m: m, dangling: m.DanglingRows(), diag: m.Diagonal()}
}

// NewSolver returns a fresh Solver over this chain: a private iterate,
// shared read-only matrix, dangling list and diagonal.
func (c *Chain) NewSolver() *Solver {
	return &Solver{chain: c, x: matrix.NewVector(c.m.Order())}
}

// Solver runs repeated PageRank computations over one fixed chain with
// zero steady-state allocations: the chain and the one iterate are built
// once at construction and reused by every Solve, and a teleport buffer
// is added by the first personalized Solve — a uniform teleport is the
// constant 1/n, held in no vector. It is the per-site building block of
// lmm.Ranker. The iterate is swept divided by the out-weights and
// multiplied back once at the end, so it needs no second vector.
//
// Solve reads PageRank as the linear system x = f·M'x + c·v, c the
// teleport mass of the previous sweep's x, and sweeps it in place
// (Gauss–Seidel, matrix.CSR.SweepLeftDamped): at worst a sweep contracts
// the error by f like a power step, far faster where mass sits on
// self-loops. Sweeps are serial: answers do not depend on GOMAXPROCS.
//
// A Solver is not safe for concurrent use, and the Scores of a returned
// Result alias its iterate: they are valid only until the next Solve.
// Clone them to retain a result across calls. Solvers sharing one Chain
// may run concurrently — only the Chain is shared, never the scratch.
type Solver struct {
	chain *Chain
	v     matrix.Vector // teleport buffer of personalized Solves; nil until the first
	x     matrix.Vector // the iterate
}

// NewSolver precomputes the reusable state for PageRank runs over the
// row-normalized chain m. The matrix is captured by reference and must
// not change while the solver is in use. Callers wanting several solvers
// over the same matrix should build one Chain and call Chain.NewSolver.
func NewSolver(m *matrix.CSR) *Solver {
	return NewChain(m).NewSolver()
}

// Solve computes PageRank with the given configuration, reusing all
// internal buffers. Result.Scores aliases solver scratch — see the type
// comment. It stops after the first sweep whose Result.Residual is at
// most cfg.Tol, so a converged seed costs exactly one sweep.
func (s *Solver) Solve(cfg Config) (Result, error) {
	c := s.chain
	n := c.m.Order()
	if err := cfg.validate(n); err != nil {
		return Result{}, err
	}
	if cfg.Start != nil && len(cfg.Start) != n {
		return Result{}, fmt.Errorf("pagerank: start vector length %d vs chain order %d", len(cfg.Start), n)
	}
	f := cfg.damping()
	tol, maxIter := cfg.Tol, cfg.MaxIter
	if tol == 0 {
		tol = matrix.DefaultTol
	}
	if maxIter == 0 {
		maxIter = matrix.DefaultMaxIter
	}
	var v matrix.Vector // nil: uniform, the sweep's constant 1/n
	if cfg.Personalization != nil {
		if s.v == nil {
			s.v = matrix.NewVector(n)
		}
		v = seed(s.v, cfg.Personalization)
	}
	x := seed(s.x, cfg.Start)
	// x stays unnormalized until the end: each sweep scales the teleport
	// term by the mass and dangling mass the previous one reported.
	mass, dang := 1.0, 0.0
	for _, d := range c.dangling {
		dang += x[d]
	}
	// The sweeps read the iterate divided by the out-weights (matrix.CSR
	// ScaleIterate): one load a link, and a division per state, not per
	// link. The dangling entries, divided by 1, stay as they are.
	c.m.ScaleIterate(x)
	res := Result{Scores: x}
	for res.Iterations < maxIter && !res.Converged {
		if cfg.Ctx != nil {
			// One atomic load on the stdlib contexts: cheap every sweep.
			if err := cfg.Ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("pagerank: %w", err)
			}
		}
		res.Residual, mass, dang = c.m.SweepLeftDamped(x, f, f*dang+(1-f)*mass, v, c.diag, c.dangling)
		res.Residual /= mass
		res.Iterations++
		res.Converged = res.Residual <= tol
	}
	if !res.Converged {
		return Result{}, fmt.Errorf("pagerank: %w after %d sweeps (residual %.3e, tol %.3e)", matrix.ErrNotConverged, res.Iterations, res.Residual, tol)
	}
	c.m.UnscaleIterate(x)
	x.Normalize()
	return res, nil
}

// seed sets dst to src rescaled to sum to 1, to uniform when src is nil.
func seed(dst, src matrix.Vector) matrix.Vector {
	if src == nil {
		return dst.Fill(1 / float64(len(dst)))
	}
	copy(dst, src)
	return dst.Normalize()
}

// Graph computes PageRank of a directed graph: the random-surfer transition
// matrix M(G) is derived from edge weights, then Sparse is applied. This is
// the paper's DocRank(Mˆ(G)) with the classical algorithm.
func Graph(g *graph.Digraph, cfg Config) (Result, error) {
	return Sparse(g.TransitionMatrix(), cfg)
}

// Minimal computes the same ranking through the minimal-irreducibility
// gatekeeper construction of §2.3.2 instead of eq. (1): the power method
// runs on the (n+1)-state Uˆ, the gatekeeper entry is dropped and the rest
// renormalized. Exposed because the Layered Method is specified in these
// terms; by the Langville–Meyer equivalence the scores match Dense.
func Minimal(m *matrix.Dense, cfg Config) (Result, error) {
	n := m.Order()
	if err := cfg.validate(n); err != nil {
		return Result{}, err
	}
	pi, err := markov.GatekeeperStationary(m, cfg.damping(), cfg.teleport(n), cfg.powerOptions())
	if err != nil {
		return Result{}, fmt.Errorf("pagerank: %w", err)
	}
	return Result{Scores: pi, Converged: true}, nil
}
