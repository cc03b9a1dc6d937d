// Package matrix provides the dense and sparse stochastic-matrix kernels
// used throughout lmmrank: probability vectors, row-stochastic matrices,
// the power method, exact stationary solves, and structural checks
// (irreducibility, period, primitivity).
//
// Conventions: all Markov matrices are row-stochastic, i.e. row i holds the
// outgoing transition probabilities of state i, and stationary distributions
// are row vectors computed from left-multiplication y' = x'M. Dimension
// mismatches are programmer errors and panic; data-dependent failures
// (non-convergence, reducible chains) are returned as errors.
package matrix

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Vector is a dense float64 vector. A Vector holding a probability
// distribution is nonnegative and sums to 1 (within floating-point error).
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector {
	return make(Vector, n)
}

// Uniform returns the uniform probability distribution over n states.
// It panics if n <= 0.
func Uniform(n int) Vector {
	if n <= 0 {
		panic(fmt.Sprintf("matrix: Uniform of non-positive length %d", n))
	}
	v := make(Vector, n)
	p := 1.0 / float64(n)
	for i := range v {
		v[i] = p
	}
	return v
}

// Basis returns the length-n probability vector with all mass on state i.
func Basis(n, i int) Vector {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("matrix: Basis index %d out of range [0,%d)", i, n))
	}
	v := make(Vector, n)
	v[i] = 1
	return v
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Sum returns the sum of all elements.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Dot returns the inner product of v and w. It panics if lengths differ.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("matrix: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Scale multiplies every element by c in place and returns v.
func (v Vector) Scale(c float64) Vector {
	for i := range v {
		v[i] *= c
	}
	return v
}

// Fill sets every element to c and returns v.
func (v Vector) Fill(c float64) Vector {
	for i := range v {
		v[i] = c
	}
	return v
}

// Normalize rescales v in place so that it sums to 1 and returns v.
// If the sum is zero (or not finite) the vector is reset to uniform.
func (v Vector) Normalize() Vector {
	s := v.Sum()
	if s == 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		p := 1.0 / float64(len(v))
		for i := range v {
			v[i] = p
		}
		return v
	}
	inv := 1.0 / s
	for i := range v {
		v[i] *= inv
	}
	return v
}

// L1Diff returns the L1 distance between v and w. It panics if lengths
// differ.
func (v Vector) L1Diff(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("matrix: L1Diff length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += math.Abs(x - w[i])
	}
	return s
}

// MaxAbsDiff returns the L∞ distance between v and w. It panics if lengths
// differ.
func (v Vector) MaxAbsDiff(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("matrix: MaxAbsDiff length mismatch %d vs %d", len(v), len(w)))
	}
	var m float64
	for i, x := range v {
		if d := math.Abs(x - w[i]); d > m {
			m = d
		}
	}
	return m
}

// IsDistribution reports whether v is a probability distribution: every
// element nonnegative (within -tol) and the total within tol of 1.
func (v Vector) IsDistribution(tol float64) bool {
	if len(v) == 0 {
		return false
	}
	for _, x := range v {
		if x < -tol || math.IsNaN(x) {
			return false
		}
	}
	return math.Abs(v.Sum()-1) <= tol
}

// ArgMax returns the index of the largest element (ties broken by lowest
// index). It panics on an empty vector.
func (v Vector) ArgMax() int {
	if len(v) == 0 {
		panic("matrix: ArgMax of empty vector")
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// String renders the vector with 4 decimal places, matching the precision
// the paper uses in its published vectors.
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatFloat(x, 'f', 4, 64))
	}
	b.WriteByte(']')
	return b.String()
}
