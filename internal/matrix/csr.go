package matrix

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Triple is one (row, col, value) entry used to build a CSR matrix.
type Triple struct {
	Row, Col int
	Val      float64
}

// MaxNarrowOrder is the largest order whose CSR stores its sources in 2
// bytes: every index of such a matrix fits a uint16. A site's chain
// indexes only its own documents, so every site chain is narrow; a
// whole-web matrix above this order keeps 4-byte sources.
const MaxNarrowOrder = 1 << 16

// NarrowValue reports whether a CSR stores the divisor or multiplicity v
// in 2 bytes: whether it is a whole number from 1 to 65 535. A
// transition matrix's multiplicities are duplicate-link counts and its
// divisors out-weights, so on a web of repeated links every one is; a
// fraction anywhere keeps all of them float64.
func NarrowValue(v float64) bool { return v >= 1 && v <= 1<<16-1 && v == math.Trunc(v) }

// CSR is a square sparse matrix, the workhorse representation for
// web-scale transition matrices, where each row holds the out-link
// probabilities of one document.
//
// A CSR is one form: the pull (compressed-sparse-column) view, because
// that is the only form a left-multiplication reads: every destination
// entry dst[j] is written once, by the loop iteration that owns it, in
// one serial sweep — the parallelism the Layered Method gives for free is
// across sites and across queries, not inside a multiply. Within each
// column the source rows are stored in ascending order, so the pull
// accumulation visits contributions in the same order as the classical
// push-based sweep over rows and reproduces its floating-point results.
//
// Entry (i, j) is mult/rowDiv[i]: a link's multiplicity over its source's
// out-weight in a transition matrix, where mult is 1 for all but the few
// links listed, in pull order, with their own (a link repeated twice, a
// weight of 2.5). NewCSR, handed values, sets every divisor to 1 and
// lists every value other than 1; graph.Digraph's TransitionMatrix sets
// the divisors to the out-weights through NewCSRFromColumns.
//
// A stored entry costs its source index and nothing else: 2 bytes when
// the order is at most MaxNarrowOrder, 4 above. A row costs its column
// offset and its divisor, and a listed link its position and
// multiplicity; the divisors and multiplicities take 2 bytes when every
// one is NarrowValue (the link counts of a crawl) and 8, as float64,
// otherwise. Both widths are picked when the matrix is built, from its
// order and its values, with no knob. Every kernel is one source generic
// over both widths, and a method picks the instantiation once per call;
// a 2-byte value converts to float64 exactly, so every width gathers the
// same numbers in the same order and gives the same bits.
//
// The in-place sweep (SweepLeftDamped) reads its iterate divided by the
// same divisors (ScaleIterate, UnscaleIterate), so a link costs it one
// gathered load, y[i], and a listed link one product, y[i]·mult.
//
// At, RowSums and Dense, which tests and small examples read, walk the
// columns; no row-major copy is ever built.
type CSR struct {
	n int

	// Column j's sources are cols' rowIdx[colPtr[j]:colPtr[j+1]],
	// ascending. Entry k's value is excMul[e]/rowDiv[i] where excPos[e]
	// == k, and 1/rowDiv[i] where k is not in the ascending excPos, i
	// its source. Every divisor is positive: a row with no entries has
	// divisor 1.
	colPtr []uint32
	excPos []uint32
	cols   form
}

// form is a CSR's sources, divisors and multiplicities at their widths
// — a *columns[I, V] — with the kernels that read them.
type form interface {
	nnz() int
	pull(m *CSR, dst, x Vector, scale, coeff float64, v Vector) float64
	sweep(m *CSR, y Vector, f, coeff float64, v, diag Vector, dangling []int) (change, mass, dangMass float64)
	scale(x Vector, divide bool)
	walk(m *CSR, lo, hi int, fn func(i, j int, mult, div float64))
	diagonal(m *CSR) Vector
	danglingRows(m *CSR) []int
	// widened returns the sources as uint32 and the values as float64,
	// the slices themselves where they are stored at that width.
	widened() (rowIdx []uint32, rowDiv, excMul []float64)
}

// columns holds a CSR's sources at width I (uint16 up to MaxNarrowOrder,
// uint32 above) and its divisors and multiplicities at width V (uint16
// when every one is NarrowValue, float64 otherwise).
type columns[I uint16 | uint32, V uint16 | float64] struct {
	rowIdx []I
	rowDiv []V
	excMul []V
}

var _ LeftMultiplier = (*CSR)(nil)
var _ FusedLeftMultiplier = (*CSR)(nil)

// NewCSR builds an n×n CSR matrix from triples, every divisor 1 and every
// value other than 1 listed. Duplicate (row, col) entries are summed in
// the order given. Triples need not be sorted and are not modified. The
// sources and values take the widths the order and the values pick, as
// in NewCSRFromColumns. It panics on out-of-range indices or
// non-positive n.
func NewCSR(n int, triples []Triple) *CSR {
	checkOrder("NewCSR", n, len(triples))
	for _, t := range triples {
		if t.Row < 0 || t.Row >= n || t.Col < 0 || t.Col >= n {
			panic(fmt.Sprintf("matrix: NewCSR triple (%d,%d) out of order %d", t.Row, t.Col, n))
		}
	}
	sorted := slices.Clone(triples)
	slices.SortStableFunc(sorted, func(a, b Triple) int {
		return cmp.Or(cmp.Compare(a.Col, b.Col), cmp.Compare(a.Row, b.Row))
	})
	colPtr := make([]uint32, n+1)
	var rowIdx, excPos []uint32
	var excMul []float64
	for k := 0; k < len(sorted); {
		t := sorted[k]
		v := t.Val
		for k++; k < len(sorted) && sorted[k].Row == t.Row && sorted[k].Col == t.Col; k++ {
			v += sorted[k].Val
		}
		if v != 1 {
			excPos = append(excPos, uint32(len(rowIdx)))
			excMul = append(excMul, v)
		}
		rowIdx = append(rowIdx, uint32(t.Row))
		colPtr[t.Col+1]++
	}
	for j := 0; j < n; j++ {
		colPtr[j+1] += colPtr[j]
	}
	return newCSR(n, colPtr, rowIdx, []float64(NewVector(n).Fill(1)), excPos, excMul)
}

// NewCSRFromColumns builds a CSR matrix in the form it retains, taking
// ownership of every slice: column j's sources are
// rowIdx[colPtr[j]:colPtr[j+1]], strictly increasing and in range; entry
// k is excMul[e]/rowDiv[i] where excPos[e] == k (excPos strictly
// increasing) and 1/rowDiv[i] otherwise, i = rowIdx[k], every divisor
// positive and finite. A transition matrix is rowDiv[i] = out-weight(i)
// (1 for a dangling row) with the links of weight other than 1 listed
// with their weights — what graph.Digraph.TransitionMatrix emits — so
// nothing is divided, sorted, merged or transposed. The sources are kept
// as given when their width is the one the order picks (uint16 up to
// MaxNarrowOrder, uint32 above), and the divisors and multiplicities when
// theirs is the one the values pick (uint16 when every one is
// NarrowValue, float64 otherwise); a slice at the other width is copied
// to its own. It panics on malformed input.
func NewCSRFromColumns[I uint16 | uint32, V uint16 | float64](n int, colPtr []uint32, rowIdx []I, rowDiv []V, excPos []uint32, excMul []V) *CSR {
	checkOrder("NewCSRFromColumns", n, len(rowIdx))
	if len(colPtr) != n+1 || colPtr[0] != 0 || int(colPtr[n]) != len(rowIdx) || len(rowDiv) != n || len(excPos) != len(excMul) {
		panic(fmt.Sprintf("matrix: NewCSRFromColumns inconsistent shape (n=%d, ptrs=%d, rows=%d, divisors=%d, exceptions=%d/%d)",
			n, len(colPtr), len(rowIdx), len(rowDiv), len(excPos), len(excMul)))
	}
	for j := 0; j < n; j++ {
		lo, hi := colPtr[j], colPtr[j+1]
		if lo > hi {
			panic(fmt.Sprintf("matrix: NewCSRFromColumns column %d has negative extent", j))
		}
		for k := lo; k < hi; k++ {
			if int(rowIdx[k]) >= n {
				panic(fmt.Sprintf("matrix: NewCSRFromColumns row %d out of order %d", rowIdx[k], n))
			}
			if k > lo && rowIdx[k] <= rowIdx[k-1] {
				panic(fmt.Sprintf("matrix: NewCSRFromColumns column %d not strictly sorted at entry %d", j, k))
			}
		}
	}
	for i, d := range rowDiv {
		if d := float64(d); !(d > 0) || math.IsInf(d, 0) {
			panic(fmt.Sprintf("matrix: NewCSRFromColumns row %d divisor %g", i, d))
		}
	}
	for e, k := range excPos {
		if int(k) >= len(rowIdx) || (e > 0 && k <= excPos[e-1]) {
			panic(fmt.Sprintf("matrix: NewCSRFromColumns exception %d at entry %d out of order", e, k))
		}
	}
	return newCSR(n, colPtr, rowIdx, rowDiv, excPos, excMul)
}

// newCSR assembles a checked matrix, its sources at the width its order
// picks and its values at the width they pick.
func newCSR[I uint16 | uint32, V uint16 | float64](n int, colPtr []uint32, rowIdx []I, rowDiv []V, excPos []uint32, excMul []V) *CSR {
	m := &CSR{n: n, colPtr: colPtr, excPos: excPos}
	if n <= MaxNarrowOrder {
		m.cols = newColumns(convert[uint16](rowIdx), rowDiv, excMul)
	} else {
		m.cols = newColumns(convert[uint32](rowIdx), rowDiv, excMul)
	}
	return m
}

// newColumns holds rowIdx beside the divisors and multiplicities at the
// width their values pick.
func newColumns[I uint16 | uint32, V uint16 | float64](rowIdx []I, rowDiv, excMul []V) form {
	if allNarrow(rowDiv) && allNarrow(excMul) {
		return &columns[I, uint16]{rowIdx, convert[uint16](rowDiv), convert[uint16](excMul)}
	}
	return &columns[I, float64]{rowIdx, convert[float64](rowDiv), convert[float64](excMul)}
}

// allNarrow reports whether every value of s is NarrowValue.
func allNarrow[V uint16 | float64](s []V) bool {
	for _, v := range s {
		if !NarrowValue(float64(v)) {
			return false
		}
	}
	return true
}

// convert returns s itself when its elements are already J's, else a
// copy converted to J; the caller has checked that every value fits.
func convert[J, E uint16 | uint32 | float64](s []E) []J {
	if t, ok := any(s).([]J); ok {
		return t
	}
	t := make([]J, len(s))
	for k, x := range s {
		t[k] = J(x)
	}
	return t
}

// checkOrder panics unless 0 < n, every row index fits 32 bits and every
// entry position fits them below noException.
func checkOrder(ctor string, n, nnz int) {
	if n <= 0 {
		panic(fmt.Sprintf("matrix: %s with non-positive order %d", ctor, n))
	}
	if uint64(n) > 1<<32 || uint64(nnz) > noException {
		panic(fmt.Sprintf("matrix: %s order %d with %d entries exceeds 32-bit indices", ctor, n, nnz))
	}
}

// Order returns the dimension n.
func (m *CSR) Order() int { return m.n }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return m.cols.nnz() }

func (c *columns[I, V]) nnz() int { return len(c.rowIdx) }

// At returns element (i, j), zero when the entry is not stored.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.n || j < 0 || j >= m.n {
		panic(fmt.Sprintf("matrix: CSR index (%d,%d) out of %d", i, j, m.n))
	}
	var v float64
	m.walkColumns(j, j+1, func(r, _ int, mult, div float64) {
		if r == i {
			v = mult / div
		}
	})
	return v
}

// MulVecLeft computes dst' = x'M.
func (m *CSR) MulVecLeft(dst, x Vector) {
	m.checkMulShape(dst, x)
	m.cols.pull(m, dst, x, 1, 0, nil)
}

// MulVecLeftFused computes dst' = x'M and returns the sum of dst,
// accumulated in index order during the same sweep. Implements
// FusedLeftMultiplier, letting the power method normalize without an
// extra pass.
func (m *CSR) MulVecLeftFused(dst, x Vector) float64 {
	m.checkMulShape(dst, x)
	return m.cols.pull(m, dst, x, 1, 0, nil)
}

// MulVecLeftDamped computes the damped-chain sweep used by PageRank
// operators in one pass:
//
//	dst[j] = f·(x'M)[j] + coeff·v[j]
//
// returning the sum of dst. The caller supplies coeff (dangling mass and
// teleport weight folded together); fusing the rank-one teleport term
// into the SpMV removes the scale and add passes over dst the matrix-free
// operator otherwise needs.
func (m *CSR) MulVecLeftDamped(dst, x Vector, f, coeff float64, v Vector) float64 {
	m.checkMulShape(dst, x)
	if len(v) != m.n {
		panic(fmt.Sprintf("matrix: CSR MulVecLeftDamped teleport length %d vs order %d", len(v), m.n))
	}
	return m.cols.pull(m, dst, x, f, coeff, v)
}

func (m *CSR) checkMulShape(dst, x Vector) {
	if len(x) != m.n || len(dst) != m.n {
		panic(fmt.Sprintf("matrix: CSR multiply lengths %d,%d vs order %d", len(x), len(dst), m.n))
	}
}

// noException is the exception cursor's position past the last listed
// entry: no entry sits there, since checkOrder keeps nnz at or below it.
const noException = math.MaxUint32

// nextException returns the position of the e-th listed entry, or
// noException past the last.
func (m *CSR) nextException(e int) uint32 {
	if e < len(m.excPos) {
		return m.excPos[e]
	}
	return noException
}

// pull runs the pull-based sweep over every destination j:
//
//	dst[j] = (x'M)[j]                     when v is nil
//	dst[j] = scale·(x'M)[j] + coeff·v[j]  otherwise
//
// and returns the sum of dst, accumulated in index order. It sums
// x[i]·M[i,j] in ascending i with M[i,j] = mult/rowDiv[i] — the products
// a push over the rows forms — so it pays a division per entry; the
// PageRank solves run SweepLeftDamped, which does not.
func (c *columns[I, V]) pull(m *CSR, dst, x Vector, scale, coeff float64, v Vector) float64 {
	colPtr, rowIdx, rowDiv, excMul := m.colPtr, c.rowIdx, c.rowDiv, c.excMul
	var sum float64
	e, next := 0, m.nextException(0)
	for j := 0; j < m.n; j++ {
		var acc float64
		k, hi := colPtr[j], colPtr[j+1]
		for {
			for stop := min(next, hi); k < stop; k++ {
				i := rowIdx[k]
				acc += x[i] * (1 / float64(rowDiv[i]))
			}
			if k == hi {
				break
			}
			i := rowIdx[k]
			acc += x[i] * (float64(excMul[e]) / float64(rowDiv[i]))
			k++
			e++
			next = m.nextException(e)
		}
		if v != nil {
			acc = scale*acc + coeff*v[j]
		}
		dst[j] = acc
		sum += acc
	}
	return sum
}

// ScaleIterate divides x[i] by row i's divisor (its out-weight in a
// transition matrix), turning an iterate into the form SweepLeftDamped
// sweeps.
func (m *CSR) ScaleIterate(x Vector) { m.cols.scale(x, true) }

// UnscaleIterate undoes ScaleIterate: x[i] ← x[i]·rowDiv[i]. A dangling
// row's entry, divided by 1, comes back exactly; any other within an ulp.
func (m *CSR) UnscaleIterate(x Vector) { m.cols.scale(x, false) }

func (c *columns[I, V]) scale(x Vector, divide bool) {
	rowDiv := c.rowDiv[:len(x)]
	if divide {
		for i, d := range rowDiv {
			x[i] /= float64(d)
		}
		return
	}
	for i, d := range rowDiv {
		x[i] *= float64(d)
	}
}

// SweepLeftDamped runs one in-place (Gauss–Seidel) sweep of the damped
// chain over the single iterate x: for every j in ascending order
//
//	x[j] ← (f·Σ_{i≠j} x[i]·M[i,j] + coeff·v[j]) / (1 − f·M[j,j])
//
// reading this sweep's x[i] for i < j and the previous one's for i > j;
// v nil is the uniform teleport, every v[j] the constant 1/n; diag[j] =
// M[j,j], nil when no state has a self-loop. It returns, summed in index
// order, Σ|Δx[j]|, Σx[j] and Σx[j] over the ascending dangling.
//
// The iterate is held scaled, y[i] = x[i]/rowDiv[i] (ScaleIterate), so
// x[i]·M[i,j] is y[i]·mult: each x[j] is divided once, when it is written,
// not once per link. A column is gathered as if every mult were 1 — one
// tight loop of loads, whose only unpredictable branch is its end — and
// its listed entries then add y[i]·(mult − 1). Δx[j] is taken against the
// previous y[j]·rowDiv[j].
func (m *CSR) SweepLeftDamped(y Vector, f, coeff float64, v, diag Vector, dangling []int) (change, mass, dangMass float64) {
	if len(y) != m.n || (v != nil && len(v) != m.n) {
		panic(fmt.Sprintf("matrix: CSR sweep lengths %d,%d vs order %d", len(y), len(v), m.n))
	}
	return m.cols.sweep(m, y, f, coeff, v, diag, dangling)
}

func (c *columns[I, V]) sweep(m *CSR, y Vector, f, coeff float64, v, diag Vector, dangling []int) (change, mass, dangMass float64) {
	rowIdx, rowDiv, excPos, excMul := c.rowIdx, c.rowDiv, m.excPos, c.excMul
	// The float64 a uniform teleport vector holds in every entry.
	uniform := 1 / float64(m.n)
	// Column j is rowIdx[lo:hi]: hi ranges over colPtr[1:], lo is the
	// previous column's hi.
	e, lo := 0, m.colPtr[0]
	for j, hi := range m.colPtr[1:] {
		yj, inv := y[j], 1.0
		if diag != nil {
			// Zeroed, the self-loop adds an exact 0 to the gather below.
			y[j], inv = 0, 1/(1-f*diag[j])
		}
		var acc float64
		for _, i := range rowIdx[lo:hi] {
			acc += y[i]
		}
		for ; e < len(excPos) && excPos[e] < hi; e++ {
			acc += y[rowIdx[excPos[e]]] * (float64(excMul[e]) - 1)
		}
		lo = hi
		vj := uniform
		if v != nil {
			vj = v[j]
		}
		xj := (f*acc + coeff*vj) * inv
		d := float64(rowDiv[j])
		change += math.Abs(xj - yj*d)
		y[j] = xj / d
		mass += xj
		if len(dangling) > 0 && dangling[0] == j {
			dangMass += xj
			dangling = dangling[1:]
		}
	}
	return change, mass, dangMass
}

// Diagonal returns the self-loop weights M[j,j], or nil when none is stored.
func (m *CSR) Diagonal() Vector { return m.cols.diagonal(m) }

func (c *columns[I, V]) diagonal(m *CSR) Vector {
	var diag Vector
	for j := 0; j < m.n; j++ {
		lo := m.colPtr[j]
		col := c.rowIdx[lo:m.colPtr[j+1]]
		k := sort.Search(len(col), func(k int) bool { return int(col[k]) >= j })
		if k < len(col) && int(col[k]) == j {
			if diag == nil {
				diag = NewVector(m.n)
			}
			diag[j] = c.mult(m, lo+uint32(k)) / float64(c.rowDiv[j])
		}
	}
	return diag
}

// mult returns the multiplicity of stored entry k: 1 unless it is listed.
func (c *columns[I, V]) mult(m *CSR, k uint32) float64 {
	e := sort.Search(len(m.excPos), func(e int) bool { return m.excPos[e] >= k })
	if e < len(m.excPos) && m.excPos[e] == k {
		return float64(c.excMul[e])
	}
	return 1
}

// walkColumns calls fn(i, j, mult, div) for every stored entry (i, j) of
// the columns lo ≤ j < hi, whose value is mult/div, div row i's divisor:
// column by column, sources ascending, so each row's entries come in
// ascending column order.
func (m *CSR) walkColumns(lo, hi int, fn func(i, j int, mult, div float64)) {
	m.cols.walk(m, lo, hi, fn)
}

func (c *columns[I, V]) walk(m *CSR, lo, hi int, fn func(i, j int, mult, div float64)) {
	k := m.colPtr[lo]
	e := sort.Search(len(m.excPos), func(e int) bool { return m.excPos[e] >= k })
	for j := lo; j < hi; j++ {
		for ; k < m.colPtr[j+1]; k++ {
			mult := 1.0
			if e < len(m.excPos) && m.excPos[e] == k {
				mult = float64(c.excMul[e])
				e++
			}
			i := c.rowIdx[k]
			fn(int(i), j, mult, float64(c.rowDiv[i]))
		}
	}
}

// RowSums returns the vector of row sums, each added in ascending
// column order.
func (m *CSR) RowSums() Vector {
	sums := NewVector(m.n)
	m.walkColumns(0, m.n, func(i, _ int, mult, div float64) { sums[i] += mult / div })
	return sums
}

// NormalizeRows rescales each row to sum to 1 in place and returns m: a
// row's divisor becomes the sum of its multiplicities, the form
// graph.Digraph's TransitionMatrix emits, and the values take the width
// the new divisors pick. Rows whose multiplicities do not sum to a
// positive value (dangling states) are left untouched.
func (m *CSR) NormalizeRows() *CSR {
	weights := NewVector(m.n)
	m.walkColumns(0, m.n, func(i, _ int, mult, _ float64) { weights[i] += mult })
	rowIdx, rowDiv, excMul := m.cols.widened()
	for i, w := range weights {
		if w > 0 {
			rowDiv[i] = w
		}
	}
	*m = *newCSR(m.n, m.colPtr, rowIdx, rowDiv, m.excPos, excMul)
	return m
}

func (c *columns[I, V]) widened() ([]uint32, []float64, []float64) {
	return convert[uint32](c.rowIdx), convert[float64](c.rowDiv), convert[float64](c.excMul)
}

// DanglingRows returns the indices of rows with zero sum (no out-links),
// in ascending order: a row's sum is zero when its multiplicities, added
// in ascending column order as a row scan would, sum to zero, its divisor
// being positive.
func (m *CSR) DanglingRows() []int { return m.cols.danglingRows(m) }

func (c *columns[I, V]) danglingRows(m *CSR) []int {
	rowIdx := c.rowIdx
	sums := make([]float64, m.n)
	k := uint32(0)
	for e, p := range m.excPos {
		for ; k < p; k++ {
			sums[rowIdx[k]]++
		}
		sums[rowIdx[p]] += float64(c.excMul[e])
		k++
	}
	for ; int(k) < len(rowIdx); k++ {
		sums[rowIdx[k]]++
	}
	var out []int
	for i, s := range sums {
		if s == 0 {
			out = append(out, i)
		}
	}
	return out
}

// Dense converts m to a dense matrix (for tests and small examples).
func (m *CSR) Dense() *Dense {
	out := NewDense(m.n, m.n)
	m.walkColumns(0, m.n, func(i, j int, mult, div float64) { out.Set(i, j, mult/div) })
	return out
}
