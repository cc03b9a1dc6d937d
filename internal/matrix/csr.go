package matrix

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Triple is one (row, col, value) entry used to build a CSR matrix.
type Triple struct {
	Row, Col int
	Val      float64
}

// CSR is a square sparse matrix, the workhorse representation for
// web-scale transition matrices, where each row holds the out-link
// probabilities of one document.
//
// What a CSR retains is the pull (compressed-sparse-column) view, because
// that is the only form a left-multiplication reads: every destination
// entry dst[j] is written once, by the loop iteration that owns it, in
// one serial sweep — the parallelism the Layered Method gives for free is
// across sites and across queries, not inside a multiply. Within each
// column the source rows are stored in ascending order, so the pull
// accumulation visits contributions in the same order as the classical
// push-based sweep and reproduces its floating-point results. Source
// indices are 32-bit: a stored entry costs 12 bytes.
//
// The row view (Row, At, RowNNZ, RowSums, NormalizeRows, IsRowStochastic,
// Dense, EachNonZero) is derived from the pull view under a sync.Once on
// first use — tests, package markov and the examples get it, a serving
// chain that only multiplies never builds it. NewCSR and NewCSRFromSorted
// are handed rows and keep them, so their row view is there from the
// start. A CSR must not be copied by value.
type CSR struct {
	n int

	// Pull view: column j's incoming entries are
	// rowIdx[colPtr[j]:colPtr[j+1]] / cval[...], rows ascending.
	colPtr []int
	rowIdx []uint32
	cval   []float64

	// Row view: row i's entries are colIdx[rowPtr[i]:rowPtr[i+1]] /
	// val[...], columns ascending. Read only after forward().
	rowOnce sync.Once
	rowPtr  []int
	colIdx  []int
	val     []float64
}

var _ LeftMultiplier = (*CSR)(nil)
var _ FusedLeftMultiplier = (*CSR)(nil)

// NewCSR builds an n×n CSR matrix from triples. Duplicate (row, col)
// entries are summed. Triples need not be sorted. It panics on
// out-of-range indices or non-positive n.
func NewCSR(n int, triples []Triple) *CSR {
	checkOrder("NewCSR", n)
	for _, t := range triples {
		if t.Row < 0 || t.Row >= n || t.Col < 0 || t.Col >= n {
			panic(fmt.Sprintf("matrix: NewCSR triple (%d,%d) out of order %d", t.Row, t.Col, n))
		}
	}

	// Pass 1: count entries per row and build row pointers.
	counts := make([]int, n+1)
	for _, t := range triples {
		counts[t.Row+1]++
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}

	// Pass 2: scatter into place.
	colIdx := make([]int, len(triples))
	val := make([]float64, len(triples))
	next := make([]int, n)
	copy(next, counts[:n])
	for _, t := range triples {
		k := next[t.Row]
		colIdx[k] = t.Col
		val[k] = t.Val
		next[t.Row]++
	}

	m := &CSR{n: n, rowPtr: counts, colIdx: colIdx, val: val}
	m.sortAndDedupeRows()
	m.rowOnce.Do(func() {}) // the row view is the input; nothing to derive
	m.buildTranspose()
	return m
}

// NewCSRFromSorted builds a CSR matrix directly from prebuilt row-pointer
// and entry slices, taking ownership of them. Rows must hold strictly
// increasing, in-range columns — the form adjacency lists already have
// after graph.Digraph.Dedupe — so the triple round-trip, per-row sort and
// dedupe of NewCSR are all skipped. It panics on malformed input.
func NewCSRFromSorted(n int, rowPtr, colIdx []int, val []float64) *CSR {
	checkOrder("NewCSRFromSorted", n)
	if len(rowPtr) != n+1 || rowPtr[0] != 0 || rowPtr[n] != len(colIdx) || len(colIdx) != len(val) {
		panic(fmt.Sprintf("matrix: NewCSRFromSorted inconsistent shape (n=%d, ptrs=%d, cols=%d, vals=%d)",
			n, len(rowPtr), len(colIdx), len(val)))
	}
	for i := 0; i < n; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		if lo > hi {
			panic(fmt.Sprintf("matrix: NewCSRFromSorted row %d has negative extent", i))
		}
		for k := lo; k < hi; k++ {
			if colIdx[k] < 0 || colIdx[k] >= n {
				panic(fmt.Sprintf("matrix: NewCSRFromSorted column %d out of order %d", colIdx[k], n))
			}
			if k > lo && colIdx[k] <= colIdx[k-1] {
				panic(fmt.Sprintf("matrix: NewCSRFromSorted row %d not strictly sorted at entry %d", i, k))
			}
		}
	}
	m := &CSR{n: n, rowPtr: rowPtr, colIdx: colIdx, val: val}
	m.rowOnce.Do(func() {}) // the row view is the input; nothing to derive
	m.buildTranspose()
	return m
}

// NewCSRFromColumns builds a CSR matrix directly in the form it retains:
// column j's entries are rowIdx[colPtr[j]:colPtr[j+1]] / val[...], taking
// ownership of the slices. Columns must hold strictly increasing,
// in-range rows — what scattering sorted adjacency lists in ascending
// source order produces (graph.Digraph.TransitionMatrix) — so nothing is
// sorted, merged or transposed, and no row arrays exist until the row
// view is first asked for. It panics on malformed input.
func NewCSRFromColumns(n int, colPtr []int, rowIdx []uint32, val []float64) *CSR {
	checkOrder("NewCSRFromColumns", n)
	if len(colPtr) != n+1 || colPtr[0] != 0 || colPtr[n] != len(rowIdx) || len(rowIdx) != len(val) {
		panic(fmt.Sprintf("matrix: NewCSRFromColumns inconsistent shape (n=%d, ptrs=%d, rows=%d, vals=%d)",
			n, len(colPtr), len(rowIdx), len(val)))
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
	return &CSR{n: n, colPtr: colPtr, rowIdx: rowIdx, cval: val}
}

// checkOrder panics unless 0 < n and every index fits the 32-bit rowIdx.
func checkOrder(ctor string, n int) {
	if n <= 0 {
		panic(fmt.Sprintf("matrix: %s with non-positive order %d", ctor, n))
	}
	if uint64(n) > 1<<32 {
		panic(fmt.Sprintf("matrix: %s order %d exceeds 32-bit indices", ctor, n))
	}
}

// sortAndDedupeRows sorts every row by column and merges duplicates by
// summing their values, compacting storage in place.
func (m *CSR) sortAndDedupeRows() {
	w := 0 // write cursor into compacted storage
	newPtr := make([]int, m.n+1)
	for i := 0; i < m.n; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		cols, vals := m.colIdx[lo:hi], m.val[lo:hi]
		sortPairs(cols, vals)
		start := w
		for k := 0; k < len(cols); k++ {
			if w > start && m.colIdx[w-1] == cols[k] {
				m.val[w-1] += vals[k]
				continue
			}
			m.colIdx[w] = cols[k]
			m.val[w] = vals[k]
			w++
		}
		newPtr[i+1] = w
	}
	m.rowPtr = newPtr
	m.colIdx = m.colIdx[:w]
	m.val = m.val[:w]
}

// sortPairs sorts the parallel (cols, vals) slices by column without the
// sort.Interface indirection: insertion sort for the short rows typical
// of web graphs, three-way (fat-pivot) quicksort above that so the
// duplicate-heavy rows NewCSR explicitly accepts stay O(n·log n) — a
// run of equal columns lands in the middle partition in one pass.
func sortPairs(cols []int, vals []float64) {
	for len(cols) > 24 {
		// Median-of-three pivot.
		mid, last := len(cols)/2, len(cols)-1
		if cols[mid] < cols[0] {
			cols[mid], cols[0] = cols[0], cols[mid]
			vals[mid], vals[0] = vals[0], vals[mid]
		}
		if cols[last] < cols[0] {
			cols[last], cols[0] = cols[0], cols[last]
			vals[last], vals[0] = vals[0], vals[last]
		}
		if cols[last] < cols[mid] {
			cols[mid], cols[last] = cols[last], cols[mid]
			vals[mid], vals[last] = vals[last], vals[mid]
		}
		pivot := cols[mid]
		// Dutch-flag partition: [0,lt) < pivot, [lt,i) == pivot,
		// (gt,len) > pivot.
		lt, i, gt := 0, 0, len(cols)-1
		for i <= gt {
			switch {
			case cols[i] < pivot:
				cols[i], cols[lt] = cols[lt], cols[i]
				vals[i], vals[lt] = vals[lt], vals[i]
				lt++
				i++
			case cols[i] > pivot:
				cols[i], cols[gt] = cols[gt], cols[i]
				vals[i], vals[gt] = vals[gt], vals[i]
				gt--
			default:
				i++
			}
		}
		// Recurse on the smaller side, loop on the larger.
		if lt < len(cols)-gt-1 {
			sortPairs(cols[:lt], vals[:lt])
			cols, vals = cols[gt+1:], vals[gt+1:]
		} else {
			sortPairs(cols[gt+1:], vals[gt+1:])
			cols, vals = cols[:lt], vals[:lt]
		}
	}
	for k := 1; k < len(cols); k++ {
		c, v := cols[k], vals[k]
		j := k - 1
		for j >= 0 && cols[j] > c {
			cols[j+1], vals[j+1] = cols[j], vals[j]
			j--
		}
		cols[j+1], vals[j+1] = c, v
	}
}

// buildTranspose derives the pull view from the finalized rows. Scanning
// rows in ascending order keeps each column's source rows ascending.
func (m *CSR) buildTranspose() {
	m.colPtr = make([]int, m.n+1)
	for _, j := range m.colIdx {
		m.colPtr[j+1]++
	}
	for j := 0; j < m.n; j++ {
		m.colPtr[j+1] += m.colPtr[j]
	}
	m.rowIdx = make([]uint32, len(m.colIdx))
	m.cval = make([]float64, len(m.val))
	next := make([]int, m.n)
	copy(next, m.colPtr[:m.n])
	for i := 0; i < m.n; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			j := m.colIdx[k]
			p := next[j]
			m.rowIdx[p] = uint32(i)
			m.cval[p] = m.val[k]
			next[j]++
		}
	}
}

// forward derives the row view from the pull view, once: the mirror
// image of buildTranspose — scanning columns in ascending order leaves
// each row's columns ascending. Every method that reads rowPtr, colIdx
// or val calls it first; concurrent first callers build it exactly once.
func (m *CSR) forward() {
	m.rowOnce.Do(func() {
		rowPtr := make([]int, m.n+1)
		for _, i := range m.rowIdx {
			rowPtr[i+1]++
		}
		for i := 0; i < m.n; i++ {
			rowPtr[i+1] += rowPtr[i]
		}
		colIdx := make([]int, len(m.rowIdx))
		val := make([]float64, len(m.cval))
		next := make([]int, m.n)
		copy(next, rowPtr[:m.n])
		for j := 0; j < m.n; j++ {
			for k := m.colPtr[j]; k < m.colPtr[j+1]; k++ {
				p := next[m.rowIdx[k]]
				colIdx[p] = j
				val[p] = m.cval[k]
				next[m.rowIdx[k]]++
			}
		}
		m.rowPtr, m.colIdx, m.val = rowPtr, colIdx, val
	})
}

// Order returns the dimension n.
func (m *CSR) Order() int { return m.n }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.cval) }

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int {
	m.forward()
	return m.rowPtr[i+1] - m.rowPtr[i]
}

// Row calls fn(col, val) for each stored entry of row i in column order.
func (m *CSR) Row(i int, fn func(col int, val float64)) {
	m.forward()
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		fn(m.colIdx[k], m.val[k])
	}
}

// At returns element (i, j), zero when the entry is not stored.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.n || j < 0 || j >= m.n {
		panic(fmt.Sprintf("matrix: CSR index (%d,%d) out of %d", i, j, m.n))
	}
	m.forward()
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	k := lo + sort.SearchInts(m.colIdx[lo:hi], j)
	if k < hi && m.colIdx[k] == j {
		return m.val[k]
	}
	return 0
}

// MulVecLeft computes dst' = x'M.
func (m *CSR) MulVecLeft(dst, x Vector) {
	m.checkMulShape(dst, x)
	m.pullApply(dst, x, 1, 0, nil)
}

// MulVecLeftFused computes dst' = x'M and returns the sum of dst,
// accumulated in index order during the same sweep. Implements
// FusedLeftMultiplier, letting the power method normalize without an
// extra pass.
func (m *CSR) MulVecLeftFused(dst, x Vector) float64 {
	m.checkMulShape(dst, x)
	return m.pullApply(dst, x, 1, 0, nil)
}

// MulVecLeftDamped computes the damped-chain sweep used by PageRank
// operators in one pass:
//
//	dst[j] = f·(x'M)[j] + coeff·v[j]
//
// returning the sum of dst. The caller supplies coeff (dangling mass and
// teleport weight folded together); fusing the rank-one teleport term
// into the SpMV removes the Scale+AddScaled sweeps the matrix-free
// operator otherwise needs.
func (m *CSR) MulVecLeftDamped(dst, x Vector, f, coeff float64, v Vector) float64 {
	m.checkMulShape(dst, x)
	if len(v) != m.n {
		panic(fmt.Sprintf("matrix: CSR MulVecLeftDamped teleport length %d vs order %d", len(v), m.n))
	}
	return m.pullApply(dst, x, f, coeff, v)
}

func (m *CSR) checkMulShape(dst, x Vector) {
	if len(x) != m.n || len(dst) != m.n {
		panic(fmt.Sprintf("matrix: CSR multiply lengths %d,%d vs order %d", len(x), len(dst), m.n))
	}
}

// pullApply runs the pull-based sweep over every destination j:
//
//	dst[j] = (x'M)[j]                     when v is nil
//	dst[j] = scale·(x'M)[j] + coeff·v[j]  otherwise
//
// and returns the sum of dst, accumulated in index order.
func (m *CSR) pullApply(dst, x Vector, scale, coeff float64, v Vector) float64 {
	var sum float64
	if v == nil {
		for j := 0; j < m.n; j++ {
			var acc float64
			for k := m.colPtr[j]; k < m.colPtr[j+1]; k++ {
				acc += x[m.rowIdx[k]] * m.cval[k]
			}
			dst[j] = acc
			sum += acc
		}
		return sum
	}
	for j := 0; j < m.n; j++ {
		var acc float64
		for k := m.colPtr[j]; k < m.colPtr[j+1]; k++ {
			acc += x[m.rowIdx[k]] * m.cval[k]
		}
		acc = scale*acc + coeff*v[j]
		dst[j] = acc
		sum += acc
	}
	return sum
}

// SweepLeftDamped runs one in-place (Gauss–Seidel) sweep of the damped
// chain over the single iterate x: for every j in ascending order
//
//	x[j] ← (f·Σ_{i≠j} x[i]·M[i,j] + coeff·v[j]) / (1 − f·M[j,j])
//
// reading this sweep's x[i] for i < j and the previous one's for i > j;
// diag[j] = M[j,j], nil when no state has a self-loop. It returns, summed
// in index order, Σ|Δx[j]|, Σx[j] and Σx[j] over the ascending dangling.
func (m *CSR) SweepLeftDamped(x Vector, f, coeff float64, v, diag Vector, dangling []int) (change, mass, dangMass float64) {
	m.checkMulShape(x, v)
	for j := 0; j < m.n; j++ {
		old, inv := x[j], 1.0
		if diag != nil {
			// Zeroed, the self-loop adds an exact 0 to the gather below.
			x[j], inv = 0, 1/(1-f*diag[j])
		}
		var acc float64
		for k := m.colPtr[j]; k < m.colPtr[j+1]; k++ {
			acc += x[m.rowIdx[k]] * m.cval[k]
		}
		acc = (f*acc + coeff*v[j]) * inv
		x[j] = acc
		change += math.Abs(acc - old)
		mass += acc
		if len(dangling) > 0 && dangling[0] == j {
			dangMass += acc
			dangling = dangling[1:]
		}
	}
	return change, mass, dangMass
}

// Diagonal returns the self-loop weights M[j,j], or nil when none is stored.
func (m *CSR) Diagonal() Vector {
	var diag Vector
	for j := 0; j < m.n; j++ {
		lo := m.colPtr[j]
		col := m.rowIdx[lo:m.colPtr[j+1]]
		k := sort.Search(len(col), func(k int) bool { return int(col[k]) >= j })
		if k < len(col) && int(col[k]) == j {
			if diag == nil {
				diag = NewVector(m.n)
			}
			diag[j] = m.cval[lo+k]
		}
	}
	return diag
}

// RowSums returns the vector of row sums.
func (m *CSR) RowSums() Vector {
	m.forward()
	sums := NewVector(m.n)
	for i := 0; i < m.n; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.val[k]
		}
		sums[i] = s
	}
	return sums
}

// NormalizeRows rescales each row to sum to 1 in place and returns m.
// Zero rows (dangling states) are left untouched.
func (m *CSR) NormalizeRows() *CSR {
	m.forward()
	for i := 0; i < m.n; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.val[k]
		}
		if s == 0 {
			continue
		}
		inv := 1.0 / s
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			m.val[k] *= inv
		}
	}
	// The pull view holds the same values in a different layout; rebuild
	// it so the kernels see the rescaled entries.
	m.buildTranspose()
	return m
}

// DanglingRows returns the indices of rows with zero sum (no out-links),
// in ascending order. It reads the pull view — every PageRank chain asks,
// and none of them should pay for the row view: walking the columns in
// order adds each row's entries in ascending column order, the order a
// row scan would.
func (m *CSR) DanglingRows() []int {
	sums := make([]float64, m.n)
	for k, i := range m.rowIdx {
		sums[i] += m.cval[k]
	}
	var out []int
	for i, s := range sums {
		if s == 0 {
			out = append(out, i)
		}
	}
	return out
}

// IsRowStochastic reports whether every row is nonnegative and sums to 1
// within tol.
func (m *CSR) IsRowStochastic(tol float64) bool {
	m.forward()
	for i := 0; i < m.n; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			v := m.val[k]
			if v < -tol || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
			s += v
		}
		if math.Abs(s-1) > tol {
			return false
		}
	}
	return true
}

// Dense converts m to a dense matrix (for tests and small examples).
func (m *CSR) Dense() *Dense {
	m.forward()
	out := NewDense(m.n, m.n)
	for i := 0; i < m.n; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			out.Set(i, m.colIdx[k], m.val[k])
		}
	}
	return out
}
