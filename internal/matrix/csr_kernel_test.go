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
	m.walkColumns(0, m.n, func(i, j int, mult, div float64) {
		rows[i] = append(rows[i], entry{j, mult / div})
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
// (mostly 1, up to 7) or, unless whole, fractions (2.5, 0.5), rows may be
// dangling or hold self-loops, each row's divisor is its out-weight (1
// when dangling) and every link of weight other than 1 is listed with its
// weight.
func randomTransition(rng *rand.Rand, n, links int, whole bool) *CSR {
	weights := []float64{1, 1, 1, 1, 1, 1, 2, 3, 7, 2.5, 0.5}
	if whole {
		weights = weights[:9]
	}
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
	_, mul := values(w)
	return NewCSRFromColumns(n, w.colPtr, sources(w), []float64(outW), w.excPos, mul)
}

// forms is every (wide sources, wide values) pair AtWidth builds, the
// four kernel instantiations.
var forms = [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}}

// formsOf returns m in each form its values fit: all four when every
// divisor and multiplicity is a whole number from 1 to 65 535, the two
// float64 forms otherwise.
func formsOf(m *CSR) map[[2]bool]*CSR {
	out := make(map[[2]bool]*CSR)
	div, mul := values(m)
	for _, f := range forms {
		if f[1] || (allNarrow(div) && allNarrow(mul)) {
			out[f] = AtWidth(m, f[0], f[1])
		}
	}
	return out
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
// other than 1 listed), in every form their values fit.
func TestPullMatchesPushBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(60) + 1
		m := randomSparse(rng, n, rng.Intn(4*n+1))
		if trial%2 == 1 {
			m = randomTransition(rng, n, rng.Intn(4*n+1), trial%4 == 1)
		}
		x := randomX(rng, n)
		for form, m := range formsOf(m) {
			got, want := NewVector(n), NewVector(n)
			m.MulVecLeft(got, x)
			pushMulVecLeft(m, want, x)
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("trial %d (wide sources, values %v): pull dst[%d] = %g, push = %g (diff %g)",
						trial, form, j, got[j], want[j], got[j]-want[j])
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
		div, mul := values(m)
		sdiv, smul := values(s)
		built := []struct {
			name    string
			m       *CSR
			triples []Triple
		}{
			{"NewCSR", m, all},
			{"NewCSRFromColumns (uint32)", NewCSRFromColumns(n, m.colPtr, sources(m), div, m.excPos, mul), all},
			{"NewCSRFromColumns (uint16)", NewCSRFromColumns(n, s.colPtr, convert[uint16](sources(s)), sdiv, s.excPos, smul), short},
		}
		for _, b := range built {
			want := 2
			if n > MaxNarrowOrder {
				want = 4
			}
			if got, _ := widths(b.m); got != want {
				t.Errorf("order %d, %s: %d-byte sources, want %d", n, b.name, got, want)
			}
			for _, tr := range b.triples {
				if got := b.m.At(tr.Row, tr.Col); got != tr.Val {
					t.Errorf("order %d, %s: At(%d,%d) = %g, want %g", n, b.name, tr.Row, tr.Col, got, tr.Val)
				}
			}
		}
	}
}

// TestValueWidthFollowsValues: every constructor stores the divisors
// and multiplicities in 2 bytes when each one is a whole number from 1 to
// 65 535, and as float64 when one is a fraction, 0 or 65 536 — a listed
// weight or a row's out-weight — whatever width NewCSRFromColumns is
// handed them at, and every entry reads back the same.
func TestValueWidthFollowsValues(t *testing.T) {
	for _, c := range []struct {
		name    string
		weights []float64 // row 0's links, to columns 0, 1, ...
		// narrow: every weight and row 0's out-weight fit 2 bytes;
		// weightsFit: every weight does — what NewCSR, whose divisors are 1, picks from.
		narrow, weightsFit bool
	}{
		{"unit links", []float64{1, 1, 1}, true, true},
		{"repeated links", []float64{2, 7, 1}, true, true},
		{"out-weight 65 535", []float64{65534, 1}, true, true},
		{"out-weight 65 536", []float64{65535, 1}, false, true},
		{"weight 65 536", []float64{65536}, false, false},
		{"fractional weight", []float64{2.5, 1}, false, false},
		{"weight below 1", []float64{0.5, 3}, false, false},
	} {
		n := len(c.weights) + 1
		var triples []Triple
		for j, w := range c.weights {
			triples = append(triples, Triple{0, j, w}, Triple{n - 1, j, 1})
		}
		w := NewCSR(n, triples)
		if _, got := widths(w); (got == 2) != c.weightsFit {
			t.Errorf("%s, NewCSR: %d-byte values, want 2-byte %v", c.name, got, c.weightsFit)
		}
		outW, mul := values(w)
		outW[0] = w.RowSums()[0]
		built := map[string]*CSR{"float64": NewCSRFromColumns(n, w.colPtr, sources(w), outW, w.excPos, mul)}
		if c.narrow {
			built["uint16"] = NewCSRFromColumns(n, w.colPtr, sources(w), convert[uint16](outW), w.excPos, convert[uint16](mul))
		}
		for handed, m := range built {
			if _, got := widths(m); (got == 2) != c.narrow {
				t.Errorf("%s, NewCSRFromColumns handed %s: %d-byte values, want 2-byte %v", c.name, handed, got, c.narrow)
			}
			for j, wt := range c.weights {
				if got := m.At(0, j); got != wt/outW[0] {
					t.Errorf("%s, NewCSRFromColumns handed %s: At(0,%d) = %g, want %g", c.name, handed, j, got, wt/outW[0])
				}
			}
		}
	}
}

// TestWidthsAgreeBitwise: one matrix built in every form its values fit
// — 2-byte and 4-byte sources, 2-byte and float64 divisors and
// multiplicities — gives the same bits from every kernel: the sweep (its
// iterate and three sums, with a teleport vector and with the uniform nil
// one, which equals a vector of 1/n), the damped multiply, Diagonal,
// DanglingRows, RowSums, At and Dense — on generic and transition
// matrices, whole-valued and not, with and without self-loops, up to an
// order whose last index is 65 535.
func TestWidthsAgreeBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	all := 0
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(60) + 1
		if trial < 2 {
			n = MaxNarrowOrder
		}
		var m *CSR
		switch trial % 3 {
		case 0:
			m = randomSparse(rng, n, rng.Intn(4*n+1))
		case 1:
			m = randomTransition(rng, n, rng.Intn(4*n+1), true)
		default:
			m = randomTransition(rng, n, rng.Intn(4*n+1), false)
		}
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
		ref := AtWidth(m, true, true)
		built := formsOf(m)
		if len(built) == 4 {
			all++
		}
		for form, m := range built {
			same := func(what string, a, b Vector) {
				t.Helper()
				if len(a) != len(b) {
					t.Fatalf("trial %d, %v: %s lengths %d, %d", trial, form, what, len(a), len(b))
				}
				for j := range a {
					if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
						t.Fatalf("trial %d, wide sources, values %v: %s [%d] = %g, %g in the widest form", trial, form, what, j, a[j], b[j])
					}
				}
			}
			for _, tv := range []struct {
				name string
				v    Vector
			}{{"teleport", v}, {"uniform", nil}} {
				a, b := run(m, tv.v), run(ref, tv.v)
				same("sweep ("+tv.name+")", a.vec, b.vec)
				same("sweep sums ("+tv.name+")", a.sums[:], b.sums[:])
			}
			nilV, vecV := run(m, nil), run(m, uniform)
			same("nil teleport vs 1/n", nilV.vec, vecV.vec)
			same("nil teleport vs 1/n sums", nilV.sums[:], vecV.sums[:])

			a, b := NewVector(n), NewVector(n)
			sa, sb := m.MulVecLeftDamped(a, x, 0.85, 0.21, v), ref.MulVecLeftDamped(b, x, 0.85, 0.21, v)
			same("MulVecLeftDamped", append(a, sa), append(b, sb))
			same("Diagonal", m.Diagonal(), ref.Diagonal())
			same("RowSums", m.RowSums(), ref.RowSums())
			if !slices.Equal(m.DanglingRows(), ref.DanglingRows()) {
				t.Fatalf("trial %d, %v: DanglingRows differ", trial, form)
			}
			if n <= 60 {
				same("Dense", m.Dense().data, ref.Dense().data)
			}
			m.walkColumns(0, n, func(i, j int, _, _ float64) {
				same("At", Vector{m.At(i, j)}, Vector{ref.At(i, j)})
			})
		}
	}
	if all < 15 {
		t.Errorf("only %d of 60 trials ran all four forms", all)
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
			m = randomTransition(rng, n, rng.Intn(4*n+1), trial%8 == 3)
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
		for _, form := range forms {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s (wide sources, values %v): no panic", c.name, form)
					}
				}()
				switch form {
				case [2]bool{true, true}:
					NewCSRFromColumns(c.n, c.colPtr, c.rows, c.divisors, c.excPos, c.excMuls)
				case [2]bool{true, false}:
					NewCSRFromColumns(c.n, c.colPtr, c.rows, convert[uint16](c.divisors), c.excPos, convert[uint16](c.excMuls))
				case [2]bool{false, true}:
					NewCSRFromColumns(c.n, c.colPtr, convert[uint16](c.rows), c.divisors, c.excPos, c.excMuls)
				default:
					NewCSRFromColumns(c.n, c.colPtr, convert[uint16](c.rows), convert[uint16](c.divisors), c.excPos, convert[uint16](c.excMuls))
				}
			}()
		}
	}
	// A negative, NaN or infinite divisor has no 2-byte form.
	for _, d := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("divisor %g: no panic", d)
				}
			}()
			NewCSRFromColumns(2, []uint32{0, 1, 2}, []uint16{0, 1}, []float64{1, d}, nil, nil)
		}()
	}
}
