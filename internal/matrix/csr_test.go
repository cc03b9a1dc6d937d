package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewCSRBasic(t *testing.T) {
	m := NewCSR(3, []Triple{
		{0, 1, 0.5}, {0, 2, 0.5},
		{2, 0, 1},
	})
	if m.Order() != 3 {
		t.Fatalf("Order = %d", m.Order())
	}
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	if m.At(0, 1) != 0.5 || m.At(2, 0) != 1 || m.At(1, 1) != 0 {
		t.Errorf("At wrong")
	}
	if got := m.Dense().Row(1); got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Errorf("row 1 = %v, want empty", got)
	}
}

func TestNewCSRUnsortedAndDuplicates(t *testing.T) {
	m := NewCSR(2, []Triple{
		{1, 0, 2}, {0, 1, 1}, {1, 0, 3}, {0, 0, 4},
	})
	if m.At(1, 0) != 5 {
		t.Errorf("duplicate sum: At(1,0) = %g, want 5", m.At(1, 0))
	}
	if m.At(0, 0) != 4 || m.At(0, 1) != 1 {
		t.Errorf("row 0 wrong: %g %g", m.At(0, 0), m.At(0, 1))
	}
	if m.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3 after dedupe", m.NNZ())
	}
}

func TestNewCSRPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range triple did not panic")
		}
	}()
	NewCSR(2, []Triple{{0, 2, 1}})
}

func TestCSRRowIteration(t *testing.T) {
	m := NewCSR(3, []Triple{{1, 2, 0.25}, {1, 0, 0.75}})
	var cols []int
	var vals []float64
	m.walkColumns(0, 3, func(i, j int, mult, div float64) {
		if i == 1 {
			cols = append(cols, j)
			vals = append(vals, mult/div)
		}
	})
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 {
		t.Errorf("cols = %v, want [0 2] (column-sorted)", cols)
	}
	if vals[0] != 0.75 || vals[1] != 0.25 {
		t.Errorf("vals = %v", vals)
	}
}

func TestCSRMulVecLeftMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 20
	var triples []Triple
	for i := 0; i < n; i++ {
		for k := 0; k < 4; k++ {
			triples = append(triples, Triple{i, rng.Intn(n), rng.Float64()})
		}
	}
	sp := NewCSR(n, triples)
	dn := sp.Dense()
	x := NewVector(n)
	for i := range x {
		x[i] = rng.Float64()
	}
	a, b := NewVector(n), NewVector(n)
	sp.MulVecLeft(a, x)
	dn.MulVecLeft(b, x)
	if a.L1Diff(b) > 1e-12 {
		t.Errorf("sparse vs dense mismatch: %g", a.L1Diff(b))
	}
}

func TestCSRNormalizeAndDangling(t *testing.T) {
	m := NewCSR(3, []Triple{{0, 1, 2}, {0, 2, 2}, {2, 0, 5}})
	if d := m.DanglingRows(); len(d) != 1 || d[0] != 1 {
		t.Errorf("DanglingRows = %v, want [1]", d)
	}
	m.NormalizeRows()
	if m.At(0, 1) != 0.5 || m.At(2, 0) != 1 {
		t.Errorf("normalize wrong: %v", m.Dense())
	}
	sums := m.RowSums()
	if sums[1] != 0 || math.Abs(sums[0]-1) > 1e-12 {
		t.Errorf("RowSums = %v", sums)
	}
}

func TestCSREmptyMatrix(t *testing.T) {
	m := NewCSR(4, nil)
	if m.NNZ() != 0 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	x := Uniform(4)
	dst := NewVector(4)
	m.MulVecLeft(dst, x)
	if dst.Sum() != 0 {
		t.Errorf("zero matrix product = %v", dst)
	}
	if len(m.DanglingRows()) != 4 {
		t.Errorf("all rows should dangle")
	}
}

// Property: CSR construction agrees with a dense construction from the
// same random triples, for all operations we rely on.
func TestCSRAgreesWithDenseQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 2
		nTriples := rng.Intn(4 * n)
		triples := make([]Triple, 0, nTriples)
		dense := NewDense(n, n)
		for k := 0; k < nTriples; k++ {
			tr := Triple{rng.Intn(n), rng.Intn(n), rng.Float64()}
			triples = append(triples, tr)
			dense.Set(tr.Row, tr.Col, dense.At(tr.Row, tr.Col)+tr.Val)
		}
		sp := NewCSR(n, triples)
		if !sp.Dense().Equal(dense, 1e-12) {
			return false
		}
		x := NewVector(n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		a, b := NewVector(n), NewVector(n)
		sp.MulVecLeft(a, x)
		dense.MulVecLeft(b, x)
		return a.L1Diff(b) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// FuzzNewCSR: for arbitrary triples, NewCSR agrees exactly with a dense
// accumulation of the same triples in the order given — At, RowSums and
// Dense to the bit, the stored entries one per distinct position — and
// its pull multiply matches the push reference bit for bit. Each triple
// is three bytes: row, column and a value from a table that holds 1,
// values summing to 1, zero, negatives and inexact fractions.
func FuzzNewCSR(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 0, 2, 1, 2, 0, 4})
	f.Add([]byte{1, 0, 0, 2, 0, 0, 2})
	f.Add([]byte{5, 1, 0, 6, 1, 0, 7, 1, 0, 3, 4, 4, 5, 2, 3, 0})
	f.Add([]byte{0})
	values := []float64{0, 1, -1, 0.5, 0.25, 0.1, 0.2, 1.0 / 3, 2.5, 7, -0.3, 1e-300}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])%12 + 1
		var triples []Triple
		dense := NewDense(n, n)
		stored := make(map[[2]int]bool)
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			tr := Triple{Row: int(b[0]) % n, Col: int(b[1]) % n, Val: values[int(b[2])%len(values)]}
			triples = append(triples, tr)
			dense.Set(tr.Row, tr.Col, dense.At(tr.Row, tr.Col)+tr.Val)
			stored[[2]int{tr.Row, tr.Col}] = true
		}
		m := NewCSR(n, triples)
		if m.NNZ() != len(stored) {
			t.Fatalf("NNZ = %d, want %d distinct positions", m.NNZ(), len(stored))
		}
		sums := m.RowSums()
		for i := 0; i < n; i++ {
			var want float64
			for j := 0; j < n; j++ {
				if got := m.At(i, j); got != dense.At(i, j) {
					t.Fatalf("At(%d,%d) = %g, dense %g", i, j, got, dense.At(i, j))
				}
				want += dense.At(i, j)
			}
			if sums[i] != want {
				t.Fatalf("RowSums()[%d] = %g, dense %g", i, sums[i], want)
			}
		}
		if !m.Dense().Equal(dense, 0) {
			t.Fatalf("Dense() = %v, want %v", m.Dense(), dense)
		}
		x := NewVector(n)
		for i := range x {
			x[i] = float64(i+1) / 7
		}
		got, want := NewVector(n), NewVector(n)
		m.MulVecLeft(got, x)
		pushMulVecLeft(m, want, x)
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("pull dst[%d] = %g, push %g", j, got[j], want[j])
			}
		}
	})
}
