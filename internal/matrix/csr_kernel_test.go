package matrix

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// pushMulVecLeft is the pre-optimization push-based kernel, kept as the
// reference the pull-based sweep must reproduce: scatter dst[col] +=
// x[row]·val in row order, over rows built here from the pull arrays.
// Because the pull view stores each column's sources ascending and each
// row entry's value is the product's second factor (mult/rowDiv[i], the
// quotient the pull multiply forms), the pull accumulation visits the
// same products in the same order and the results must match bitwise.
func pushMulVecLeft(m *CSR, dst, x Vector) {
	type entry struct {
		col int
		val float64
	}
	rows := make([][]entry, m.n)
	m.walkColumns(0, m.n, func(i, j int, mult float64) {
		rows[i] = append(rows[i], entry{j, mult / m.rowDiv[i]})
	})
	for j := range dst {
		dst[j] = 0
	}
	for i, row := range rows {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for _, en := range row {
			dst[en.col] += xi * en.val
		}
	}
}

func randomSparse(rng *rand.Rand, n, nnz int) *CSR {
	triples := make([]Triple, nnz)
	for k := range triples {
		triples[k] = Triple{Row: rng.Intn(n), Col: rng.Intn(n), Val: rng.Float64()}
	}
	return NewCSR(n, triples)
}

// randomTransition is a random transition matrix in the form
// graph.Digraph.TransitionMatrix emits: link weights are multiplicities
// (mostly 1, up to 7) or fractions (2.5, 0.5), rows may be dangling or
// hold self-loops, each row's divisor is its out-weight (1 when dangling)
// and every link of weight other than 1 is listed with its weight.
func randomTransition(rng *rand.Rand, n, links int) *CSR {
	weights := []float64{1, 1, 1, 1, 1, 1, 2, 3, 7, 2.5, 0.5}
	triples := make([]Triple, links)
	for k := range triples {
		triples[k] = Triple{Row: rng.Intn(n), Col: rng.Intn(n), Val: weights[rng.Intn(len(weights))]}
	}
	w := NewCSR(n, triples) // merged weights: the adjacency after Dedupe
	outW := w.RowSums()
	for i, s := range outW {
		if s == 0 {
			outW[i] = 1
		}
	}
	return NewCSRFromColumns(n, w.colPtr, AtWidth(w, true).rows32, outW, w.excPos, w.excMul)
}

func randomX(rng *rand.Rand, n int) Vector {
	x := NewVector(n)
	for i := range x {
		x[i] = rng.Float64()
	}
	return x
}

// TestPullMatchesPushBitwise: the pull sweep over the retained form
// reproduces the push sweep over its rows bit for bit — on generic
// matrices (divisors 1, every value other than 1 listed) and on
// transition matrices (divisors the out-weights, the links of weight
// other than 1 listed), with sources 2 bytes wide and 4.
func TestPullMatchesPushBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(60) + 1
		m := randomSparse(rng, n, rng.Intn(4*n+1))
		if trial%2 == 1 {
			m = randomTransition(rng, n, rng.Intn(4*n+1))
		}
		x := randomX(rng, n)
		for _, wide := range []bool{false, true} {
			m := AtWidth(m, wide)
			got, want := NewVector(n), NewVector(n)
			m.MulVecLeft(got, x)
			pushMulVecLeft(m, want, x)
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("trial %d (wide %v): pull dst[%d] = %g, push = %g (diff %g)",
						trial, wide, j, got[j], want[j], got[j]-want[j])
				}
			}
		}
	}
}

// TestWidthFollowsOrder: every constructor stores an order-65 536
// matrix's sources in 2 bytes and an order-65 537 one's in 4, whatever
// width NewCSRFromColumns is handed them at, and keeps every index.
func TestWidthFollowsOrder(t *testing.T) {
	for _, n := range []int{MaxNarrowOrder, MaxNarrowOrder + 1} {
		// Sources a 2-byte column can hold, and the order's last one.
		short := []Triple{{0, n - 1, 1}, {MaxNarrowOrder - 1, 0, 2}, {1, n - 1, 3}}
		all := append(slices.Clone(short), Triple{n - 1, n - 1, 4})
		m, s := NewCSR(n, all), NewCSR(n, short)
		built := []struct {
			name    string
			m       *CSR
			triples []Triple
		}{
			{"NewCSR", m, all},
			{"NewCSRFromColumns (uint32)", NewCSRFromColumns(n, m.colPtr, AtWidth(m, true).rows32, m.rowDiv, m.excPos, m.excMul), all},
			{"NewCSRFromColumns (uint16)", NewCSRFromColumns(n, s.colPtr, AtWidth(s, false).rows16, s.rowDiv, s.excPos, s.excMul), short},
		}
		for _, b := range built {
			if wide := n > MaxNarrowOrder; (b.m.rows32 != nil) != wide || (b.m.rows16 != nil) == wide {
				t.Errorf("order %d, %s: 2-byte sources %v, 4-byte %v; want 4-byte %v", n, b.name, b.m.rows16 != nil, b.m.rows32 != nil, wide)
			}
			for _, tr := range b.triples {
				if got := b.m.At(tr.Row, tr.Col); got != tr.Val {
					t.Errorf("order %d, %s: At(%d,%d) = %g, want %g", n, b.name, tr.Row, tr.Col, got, tr.Val)
				}
			}
		}
	}
}

// TestWidthsAgreeBitwise: one matrix built with 2-byte sources and with
// 4-byte ones gives the same bits from every kernel — the sweep (its
// iterate and three sums, with a teleport vector and with the uniform
// nil one, which equals a vector of 1/n), the damped multiply, Diagonal,
// DanglingRows, At and Dense — on generic and transition matrices, with
// and without self-loops, up to an order whose last index is 65 535.
func TestWidthsAgreeBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(60) + 1
		if trial == 0 {
			n = MaxNarrowOrder
		}
		m := randomSparse(rng, n, rng.Intn(4*n+1))
		if trial%2 == 1 {
			m = randomTransition(rng, n, rng.Intn(4*n+1))
		}
		narrow, wide := AtWidth(m, false), AtWidth(m, true)
		x, v := randomX(rng, n), randomX(rng, n)
		uniform := NewVector(n).Fill(1 / float64(n))
		type out struct {
			vec  Vector
			sums [3]float64
		}
		run := func(m *CSR, v Vector) out {
			y := x.Clone()
			m.ScaleIterate(y)
			c, s, d := m.SweepLeftDamped(y, 0.85, 0.21, v, m.Diagonal(), m.DanglingRows())
			return out{y, [3]float64{c, s, d}}
		}
		same := func(what string, a, b Vector) {
			t.Helper()
			if len(a) != len(b) {
				t.Fatalf("trial %d: %s lengths %d, %d", trial, what, len(a), len(b))
			}
			for j := range a {
				if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
					t.Fatalf("trial %d: %s [%d] = %g at 2 bytes, %g at 4", trial, what, j, a[j], b[j])
				}
			}
		}
		for _, tv := range []struct {
			name string
			v    Vector
		}{{"teleport", v}, {"uniform", nil}} {
			a, b := run(narrow, tv.v), run(wide, tv.v)
			same("sweep ("+tv.name+")", a.vec, b.vec)
			same("sweep sums ("+tv.name+")", a.sums[:], b.sums[:])
		}
		nilV, vecV := run(narrow, nil), run(narrow, uniform)
		same("nil teleport vs 1/n", nilV.vec, vecV.vec)
		same("nil teleport vs 1/n sums", nilV.sums[:], vecV.sums[:])

		a, b := NewVector(n), NewVector(n)
		sa, sb := narrow.MulVecLeftDamped(a, x, 0.85, 0.21, v), wide.MulVecLeftDamped(b, x, 0.85, 0.21, v)
		same("MulVecLeftDamped", append(a, sa), append(b, sb))
		same("Diagonal", narrow.Diagonal(), wide.Diagonal())
		if !slices.Equal(narrow.DanglingRows(), wide.DanglingRows()) {
			t.Fatalf("trial %d: DanglingRows differ", trial)
		}
		if n <= 60 {
			same("Dense", narrow.Dense().data, wide.Dense().data)
		}
		narrow.walkColumns(0, n, func(i, j int, _ float64) {
			same("At", Vector{narrow.At(i, j)}, Vector{wide.At(i, j)})
		})
	}
}

func TestMulVecLeftFusedSumMatchesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randomSparse(rng, 80, 400)
	x := randomX(rng, 80)
	dst := NewVector(80)
	sum := m.MulVecLeftFused(dst, x)
	// The fused sum accumulates dst in index order — exactly Vector.Sum.
	if sum != dst.Sum() {
		t.Fatalf("fused sum %g != dst.Sum() %g", sum, dst.Sum())
	}
}

func TestMulVecLeftDamped(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := randomSparse(rng, 40, 200)
	x := randomX(rng, 40)
	v := randomX(rng, 40)
	f, coeff := 0.85, 0.21
	want := NewVector(40)
	m.MulVecLeft(want, x)
	for j := range want {
		want[j] = f*want[j] + coeff*v[j]
	}
	got := NewVector(40)
	m.MulVecLeftDamped(got, x, f, coeff, v)
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("damped dst[%d] = %g, want %g", j, got[j], want[j])
		}
	}
}

// TestSweepLeftDamped checks the in-place sweep against its definition,
// read off At one column at a time: fresh entries below j, stale ones
// above, the self-loop solved for — with and without stored self-loops,
// with divisors 1 and with out-weights, the iterate scaled around the
// sweep — and the three sums it reports against plain passes over the
// result.
func TestSweepLeftDamped(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(30) + 1
		var triples []Triple
		for k := rng.Intn(4*n + 1); k > 0; k-- {
			i, j := rng.Intn(n), rng.Intn(n)
			if trial%2 == 0 && i == j {
				continue // even trials have no self-loop: the nil-diag path
			}
			triples = append(triples, Triple{Row: i, Col: j, Val: rng.Float64() / 4})
		}
		m := NewCSR(n, triples)
		if trial%4 == 3 {
			m = randomTransition(rng, n, rng.Intn(4*n+1))
		}
		diag := m.Diagonal()
		if trial%2 == 0 && diag != nil {
			t.Fatalf("trial %d: Diagonal() = %v for a chain without self-loops", trial, diag)
		}
		x, v := randomX(rng, n), randomX(rng, n)
		dangling := m.DanglingRows()
		f, coeff := 0.85, 0.21

		want := x.Clone()
		var change, mass, dang float64
		for j := 0; j < n; j++ {
			var acc float64
			for i := 0; i < n; i++ {
				if i != j && m.At(i, j) != 0 {
					acc += want[i] * m.At(i, j)
				}
			}
			nv := f*acc + coeff*v[j]
			if diag != nil {
				if diag[j] != m.At(j, j) {
					t.Fatalf("trial %d: diag[%d] = %g, M[j,j] = %g", trial, j, diag[j], m.At(j, j))
				}
				nv /= 1 - f*diag[j]
			}
			change += math.Abs(nv - want[j])
			want[j] = nv
			mass += nv
		}
		for _, d := range dangling {
			dang += want[d]
		}
		m.ScaleIterate(x)
		gotChange, gotMass, gotDang := m.SweepLeftDamped(x, f, coeff, v, diag, dangling)
		m.UnscaleIterate(x)
		if d := x.MaxAbsDiff(want); d > 1e-15 {
			t.Errorf("trial %d: sweep differs from its definition by %g", trial, d)
		}
		if math.Abs(gotChange-change) > 1e-13 || math.Abs(gotMass-mass) > 1e-13 || math.Abs(gotDang-dang) > 1e-13 {
			t.Errorf("trial %d: change, mass, dangling = %g, %g, %g, want %g, %g, %g",
				trial, gotChange, gotMass, gotDang, change, mass, dang)
		}
	}
}

// A row of ~100k copies of one column must build in O(n·log n) time and
// merge into one entry (a Lomuto quicksort once degraded to O(n²) here).
func TestNewCSRDuplicateHeavyRow(t *testing.T) {
	const n = 100_000
	triples := make([]Triple, n)
	for k := range triples {
		triples[k] = Triple{Row: 1, Col: 7, Val: 1}
	}
	m := NewCSR(10, triples)
	if m.NNZ() != 1 || m.At(1, 7) != n {
		t.Fatalf("NNZ = %d, At(1,7) = %g; want 1 merged entry summing %d", m.NNZ(), m.At(1, 7), n)
	}
}

func TestMulVecLeftSerialZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randomSparse(rng, 256, 2048)
	x := randomX(rng, 256)
	dst := NewVector(256)
	allocs := testing.AllocsPerRun(50, func() {
		m.MulVecLeft(dst, x)
	})
	if allocs != 0 {
		t.Errorf("MulVecLeft allocates %.1f per run, want 0", allocs)
	}
}

func TestNewCSRFromColumnsRejectsMalformed(t *testing.T) {
	one := []float64{1, 1}
	cases := []struct {
		name     string
		n        int
		colPtr   []uint32
		rows     []uint32
		divisors []float64
		excPos   []uint32
		excMuls  []float64
	}{
		{"zero order", 0, []uint32{0}, nil, nil, nil, nil},
		{"unsorted column", 2, []uint32{0, 2, 2}, []uint32{1, 0}, one, nil, nil},
		{"duplicate row", 2, []uint32{0, 2, 2}, []uint32{1, 1}, one, nil, nil},
		{"row out of range", 2, []uint32{0, 1, 1}, []uint32{2}, one, nil, nil},
		{"bad ptr tail", 2, []uint32{0, 1, 3}, []uint32{0, 1}, one, nil, nil},
		{"negative extent", 2, []uint32{0, 2, 1}, []uint32{0, 1}, one, nil, nil},
		{"zero divisor", 2, []uint32{0, 1, 2}, []uint32{0, 1}, []float64{1, 0}, nil, nil},
		{"short divisors", 2, []uint32{0, 1, 2}, []uint32{0, 1}, []float64{1}, nil, nil},
		{"short exception values", 2, []uint32{0, 1, 2}, []uint32{0, 1}, one, []uint32{0}, nil},
		{"exception past the entries", 2, []uint32{0, 1, 2}, []uint32{0, 1}, one, []uint32{2}, []float64{3}},
		{"exceptions out of order", 2, []uint32{0, 1, 2}, []uint32{0, 1}, one, []uint32{1, 0}, []float64{3, 3}},
		{"exception listed twice", 2, []uint32{0, 1, 2}, []uint32{0, 1}, one, []uint32{1, 1}, []float64{3, 3}},
		{"row far out of range", 2, []uint32{0, 1, 1}, []uint32{0xFFFF}, one, nil, nil},
	}
	for _, c := range cases {
		for _, wide := range []bool{false, true} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s (wide %v): no panic", c.name, wide)
					}
				}()
				if wide {
					NewCSRFromColumns(c.n, c.colPtr, c.rows, c.divisors, c.excPos, c.excMuls)
				} else {
					NewCSRFromColumns(c.n, c.colPtr, asWidth[uint16](c.rows), c.divisors, c.excPos, c.excMuls)
				}
			}()
		}
	}
}
