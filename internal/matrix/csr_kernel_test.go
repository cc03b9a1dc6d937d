package matrix

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// pushMulVecLeft is the pre-optimization push-based kernel, kept as the
// reference the pull-based sweep must reproduce: scatter dst[col] +=
// x[row]·val in row order. Because the transpose view stores each
// column's sources ascending, the pull accumulation visits the same
// contributions in the same order and the results must match bitwise.
func pushMulVecLeft(m *CSR, dst, x Vector) {
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.n; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			dst[m.colIdx[k]] += xi * m.val[k]
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

func randomX(rng *rand.Rand, n int) Vector {
	x := NewVector(n)
	for i := range x {
		x[i] = rng.Float64()
	}
	return x
}

func TestPullMatchesPushBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(60) + 1
		m := randomSparse(rng, n, rng.Intn(4*n+1))
		x := randomX(rng, n)
		got, want := NewVector(n), NewVector(n)
		m.MulVecLeft(got, x)
		pushMulVecLeft(m, want, x)
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("trial %d: pull dst[%d] = %g, push = %g (diff %g)",
					trial, j, got[j], want[j], got[j]-want[j])
			}
		}
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
// above, the self-loop solved for — with and without stored self-loops —
// and the three sums it reports against plain passes over the result.
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
		gotChange, gotMass, gotDang := m.SweepLeftDamped(x, f, coeff, v, diag, dangling)
		if d := x.MaxAbsDiff(want); d > 1e-15 {
			t.Errorf("trial %d: sweep differs from its definition by %g", trial, d)
		}
		if math.Abs(gotChange-change) > 1e-13 || math.Abs(gotMass-mass) > 1e-13 || math.Abs(gotDang-dang) > 1e-13 {
			t.Errorf("trial %d: change, mass, dangling = %g, %g, %g, want %g, %g, %g",
				trial, gotChange, gotMass, gotDang, change, mass, dang)
		}
	}
}

func TestNewCSRFromSortedMatchesNewCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(30) + 1
		ref := randomSparse(rng, n, rng.Intn(5*n+1))
		rowPtr := append([]int(nil), ref.rowPtr...)
		colIdx := append([]int(nil), ref.colIdx...)
		val := append([]float64(nil), ref.val...)
		m := NewCSRFromSorted(n, rowPtr, colIdx, val)
		if m.NNZ() != ref.NNZ() {
			t.Fatalf("NNZ %d vs %d", m.NNZ(), ref.NNZ())
		}
		x := randomX(rng, n)
		a, b := NewVector(n), NewVector(n)
		m.MulVecLeft(a, x)
		ref.MulVecLeft(b, x)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("trial %d: dst[%d] differs", trial, j)
			}
		}
	}
}

func TestNewCSRFromSortedRejectsMalformed(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		rowPtr []int
		cols   []int
		vals   []float64
	}{
		{"unsorted row", 2, []int{0, 2, 2}, []int{1, 0}, []float64{1, 1}},
		{"duplicate col", 2, []int{0, 2, 2}, []int{1, 1}, []float64{1, 1}},
		{"col out of range", 2, []int{0, 1, 1}, []int{2}, []float64{1}},
		{"bad ptr tail", 2, []int{0, 1, 3}, []int{0, 1}, []float64{1, 1}},
		{"negative extent", 2, []int{0, 2, 1}, []int{0, 1}, []float64{1, 1}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			NewCSRFromSorted(c.n, c.rowPtr, c.cols, c.vals)
		}()
	}
}

// A row of ~100k copies of one column must build in linear-ish time:
// the three-way partition puts the equal run in the middle bucket in
// one pass (the old Lomuto scheme degraded to O(n²) here).
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

func TestSortPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(200)
		cols := make([]int, n)
		vals := make([]float64, n)
		for i := range cols {
			cols[i] = rng.Intn(50) // duplicates likely
			vals[i] = float64(cols[i]) + 0.5
		}
		sortPairs(cols, vals)
		for i := 1; i < n; i++ {
			if cols[i-1] > cols[i] {
				t.Fatalf("trial %d: not sorted at %d", trial, i)
			}
		}
		for i := range cols {
			// Pair integrity: vals must move with their cols.
			if vals[i] != float64(cols[i])+0.5 {
				t.Fatalf("trial %d: pair broken at %d", trial, i)
			}
		}
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

// pullOnly rebuilds m from copies of its pull arrays alone, the way
// graph.Digraph.TransitionMatrix builds a matrix: no row view until
// someone asks.
func pullOnly(m *CSR) *CSR {
	return NewCSRFromColumns(m.n,
		append([]int(nil), m.colPtr...),
		append([]uint32(nil), m.rowIdx...),
		append([]float64(nil), m.cval...))
}

// TestRowViewDerivedFromPullRoundTrips: the row view derived on first
// use from the pull view is the row view the pull view was built from —
// same pointers, columns and values — through every row-reading method,
// and the derivation leaves the multiply untouched.
func TestRowViewDerivedFromPullRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(50) + 1
		ref := randomSparse(rng, n, rng.Intn(5*n+1))
		m := pullOnly(ref)
		if m.rowPtr != nil || m.colIdx != nil || m.val != nil {
			t.Fatal("a pull-built matrix was born with a row view")
		}
		if m.NNZ() != ref.NNZ() {
			t.Fatalf("NNZ %d vs %d", m.NNZ(), ref.NNZ())
		}
		x := randomX(rng, n)
		before, after, want := NewVector(n), NewVector(n), NewVector(n)
		m.MulVecLeft(before, x)
		if m.rowPtr != nil {
			t.Fatal("a multiply derived the row view")
		}
		if got, want := m.DanglingRows(), ref.DanglingRows(); len(got) != len(want) {
			t.Fatalf("dangling rows %v vs %v", got, want)
		}
		if m.rowPtr != nil {
			t.Fatal("DanglingRows derived the row view")
		}
		for i := 0; i < n; i++ {
			if m.RowNNZ(i) != ref.RowNNZ(i) {
				t.Fatalf("RowNNZ(%d) = %d, want %d", i, m.RowNNZ(i), ref.RowNNZ(i))
			}
			for j := 0; j < n; j++ {
				if m.At(i, j) != ref.At(i, j) {
					t.Fatalf("At(%d,%d) = %g, want %g", i, j, m.At(i, j), ref.At(i, j))
				}
			}
		}
		for k := range ref.colIdx {
			if m.colIdx[k] != ref.colIdx[k] || m.val[k] != ref.val[k] {
				t.Fatalf("derived entry %d = (%d, %g), want (%d, %g)", k, m.colIdx[k], m.val[k], ref.colIdx[k], ref.val[k])
			}
		}
		if !m.Dense().Equal(ref.Dense(), 0) || m.RowSums().L1Diff(ref.RowSums()) != 0 {
			t.Fatal("Dense/RowSums differ through the derived row view")
		}
		m.MulVecLeft(after, x)
		pushMulVecLeft(m, want, x)
		for j := range after {
			if after[j] != before[j] || after[j] != want[j] {
				t.Fatalf("dst[%d]: %g before, %g after the row view, push %g", j, before[j], after[j], want[j])
			}
		}
		// NormalizeRows works through the derived rows and refreshes the
		// pull view from them.
		a, b := NewVector(n), NewVector(n)
		m.NormalizeRows().MulVecLeft(a, x)
		ref.NormalizeRows().MulVecLeft(b, x)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("normalized dst[%d] = %g, want %g", j, a[j], b[j])
			}
		}
	}
}

// TestRowViewConcurrentFirstUse: readers of the row view and multipliers
// racing on a matrix whose row view does not exist yet all see the full
// answer — the Once builds it exactly once. Run under -race; GOMAXPROCS
// is raised so the goroutines really overlap on a multi-core host.
func TestRowViewConcurrentFirstUse(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(14))
	const n = 200
	ref := randomSparse(rng, n, 3000)
	x := randomX(rng, n)
	want := NewVector(n)
	ref.MulVecLeft(want, x)
	for trial := 0; trial < 20; trial++ {
		m := pullOnly(ref)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				switch g % 3 {
				case 0:
					dst := NewVector(n)
					m.MulVecLeft(dst, x)
					for j := range dst {
						if dst[j] != want[j] {
							t.Errorf("concurrent multiply: dst[%d] = %g, want %g", j, dst[j], want[j])
							return
						}
					}
				case 1:
					for i := 0; i < n; i++ {
						k := 0
						m.Row(i, func(c int, v float64) {
							if ref.colIdx[ref.rowPtr[i]+k] != c || ref.val[ref.rowPtr[i]+k] != v {
								t.Errorf("concurrent Row(%d) entry %d = (%d, %g)", i, k, c, v)
							}
							k++
						})
						if k != ref.RowNNZ(i) {
							t.Errorf("concurrent Row(%d) saw %d entries, want %d", i, k, ref.RowNNZ(i))
							return
						}
					}
				case 2:
					for i := 0; i < n; i++ {
						if got := m.At(i, (i*7)%n); got != ref.At(i, (i*7)%n) {
							t.Errorf("concurrent At(%d,%d) = %g", i, (i*7)%n, got)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

func TestNewCSRFromColumnsRejectsMalformed(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		colPtr []int
		rows   []uint32
		vals   []float64
	}{
		{"zero order", 0, []int{0}, nil, nil},
		{"unsorted column", 2, []int{0, 2, 2}, []uint32{1, 0}, []float64{1, 1}},
		{"duplicate row", 2, []int{0, 2, 2}, []uint32{1, 1}, []float64{1, 1}},
		{"row out of range", 2, []int{0, 1, 1}, []uint32{2}, []float64{1}},
		{"bad ptr tail", 2, []int{0, 1, 3}, []uint32{0, 1}, []float64{1, 1}},
		{"negative extent", 2, []int{0, 2, 1}, []uint32{0, 1}, []float64{1, 1}},
		{"short values", 2, []int{0, 1, 2}, []uint32{0, 1}, []float64{1}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			NewCSRFromColumns(c.n, c.colPtr, c.rows, c.vals)
		}()
	}
}
