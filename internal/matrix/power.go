package matrix

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// ErrNotConverged is returned (wrapped) when PowerLeft, or the sweeps of a
// pagerank.Solver, exhaust the budget before reaching the tolerance.
var ErrNotConverged = errors.New("matrix: iteration did not converge")

// Default iteration parameters. A power step on a damped web chain contracts
// by f = 0.85, so 1e-10 needs ~140 (a pagerank.Solver sweep: half that, a
// tenth on a SiteGraph); 1000 leaves a wide margin for the undamped chains.
const (
	DefaultTol     = 1e-10
	DefaultMaxIter = 1000
)

// FusedLeftMultiplier is a LeftMultiplier whose sweep also returns the
// sum of dst, accumulated in index order. PowerLeft exploits it to fold
// multiply, normalization and the L1 residual into two passes per
// iteration instead of four (multiply, sum, scale, diff).
type FusedLeftMultiplier interface {
	LeftMultiplier
	// MulVecLeftFused computes dst' = x'M and returns the sum of dst.
	MulVecLeftFused(dst, x Vector) float64
}

// PowerScratch holds the two iteration buffers of a PowerLeft run so
// repeated solves over same-order operators allocate nothing. The zero
// value is ready to use; buffers are (re)allocated on first use or when
// the operator order changes.
type PowerScratch struct {
	a, b Vector
}

// vectors returns the two length-n buffers, allocating only when the
// scratch is fresh or sized for a different order.
func (s *PowerScratch) vectors(n int) (x, next Vector) {
	if len(s.a) != n {
		s.a = NewVector(n)
		s.b = NewVector(n)
	}
	return s.a, s.b
}

// PowerOptions configures PowerLeft.
type PowerOptions struct {
	// Tol is the L1 convergence threshold between successive iterates.
	// Zero means DefaultTol.
	Tol float64
	// MaxIter bounds the number of iterations. Zero means DefaultMaxIter.
	MaxIter int
	// Start is the initial distribution; nil means uniform. It is not
	// mutated.
	Start Vector
	// Scratch, when non-nil, supplies reusable iteration buffers: the
	// run allocates nothing and the returned Vector aliases one of the
	// scratch buffers, remaining valid only until the scratch is used
	// again. Leave nil for an independently owned result.
	Scratch *PowerScratch
	// Ctx, when non-nil, makes the iteration cooperatively cancellable:
	// every iteration starts by checking Ctx.Err() and a cancelled or
	// expired context aborts the run, returning the context's error with
	// the best iterate so far. A nil Ctx never cancels.
	Ctx context.Context
}

// PowerResult reports the outcome of a power-method run.
type PowerResult struct {
	// Vector is the final iterate, a probability distribution when the
	// operator is stochastic. When PowerOptions.Scratch was set it
	// aliases a scratch buffer.
	Vector Vector
	// Iterations is the number of multiplications performed.
	Iterations int
	// Converged reports whether Residual <= Tol was reached.
	Converged bool
	// Residual is the final L1 difference between successive iterates.
	Residual float64
}

// PowerLeft iterates x' ← x'M until the L1 change drops below tol,
// returning the (approximate) stationary distribution of a row-stochastic
// operator M. Each iterate is renormalized to guard against floating-point
// drift. When the budget is exhausted the best iterate is still returned
// along with an error wrapping ErrNotConverged.
//
// Operators implementing FusedLeftMultiplier take the fused hot path:
// the multiply sweep reports the iterate sum, and one further pass
// normalizes and accumulates the residual — with PowerOptions.Scratch
// set, a steady-state iteration performs zero allocations.
//
// Convergence is guaranteed for primitive stochastic matrices
// (Perron–Frobenius); for merely irreducible periodic chains the iteration
// may oscillate and the caller should expect ErrNotConverged.
//
// With PowerOptions.Ctx set, a cancelled context aborts the run between
// iterations and the context's error is returned (the serving API's
// cooperative-cancellation hook).
func PowerLeft(m LeftMultiplier, opts PowerOptions) (PowerResult, error) {
	n := m.Order()
	tol := opts.Tol
	if tol == 0 {
		tol = DefaultTol
	}
	maxIter := opts.MaxIter
	if maxIter == 0 {
		maxIter = DefaultMaxIter
	}
	if opts.Start != nil && len(opts.Start) != n {
		return PowerResult{}, fmt.Errorf("matrix: start vector length %d vs operator order %d", len(opts.Start), n)
	}

	var x, next Vector
	if opts.Scratch != nil {
		x, next = opts.Scratch.vectors(n)
	} else {
		x, next = NewVector(n), NewVector(n)
	}
	if opts.Start != nil {
		copy(x, opts.Start)
		x.Normalize()
	} else {
		x.Fill(1.0 / float64(n))
	}

	fused, _ := m.(FusedLeftMultiplier)
	res := PowerResult{}
	for it := 1; it <= maxIter; it++ {
		if opts.Ctx != nil {
			// Ctx.Err is one atomic load on the stdlib contexts — cheap
			// enough to pay every iteration for mid-run cancellation.
			if err := opts.Ctx.Err(); err != nil {
				res.Vector = x
				return res, err
			}
		}
		if fused != nil {
			sum := fused.MulVecLeftFused(next, x)
			res.Residual = normalizeResidual(next, x, sum)
		} else {
			m.MulVecLeft(next, x)
			next.Normalize()
			res.Residual = next.L1Diff(x)
		}
		res.Iterations = it
		x, next = next, x
		if res.Residual <= tol {
			res.Converged = true
			break
		}
	}
	res.Vector = x
	if !res.Converged {
		return res, fmt.Errorf("%w after %d iterations (residual %.3e, tol %.3e)",
			ErrNotConverged, res.Iterations, res.Residual, tol)
	}
	return res, nil
}

// normalizeResidual rescales next to sum to 1 using the sum the fused
// sweep already computed and accumulates the L1 distance to x in the same
// pass. Degenerate sums fall back to uniform, exactly like
// Vector.Normalize.
func normalizeResidual(next, x Vector, sum float64) float64 {
	var resid float64
	if sum == 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		p := 1.0 / float64(len(next))
		for i := range next {
			next[i] = p
			resid += math.Abs(p - x[i])
		}
		return resid
	}
	inv := 1.0 / sum
	for i := range next {
		next[i] *= inv
		resid += math.Abs(next[i] - x[i])
	}
	return resid
}
