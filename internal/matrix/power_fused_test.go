package matrix

import (
	"math/rand"
	"runtime"
	"testing"
)

// unfusedPowerLeft is the pre-optimization iteration — multiply,
// Normalize, L1Diff as three separate sweeps — kept as the reference the
// fused path must reproduce.
func unfusedPowerLeft(m LeftMultiplier, opts PowerOptions) (PowerResult, error) {
	n := m.Order()
	tol := opts.Tol
	if tol == 0 {
		tol = DefaultTol
	}
	maxIter := opts.MaxIter
	if maxIter == 0 {
		maxIter = DefaultMaxIter
	}
	var x Vector
	if opts.Start != nil {
		x = opts.Start.Clone().Normalize()
	} else {
		x = Uniform(n)
	}
	next := NewVector(n)
	res := PowerResult{}
	for it := 1; it <= maxIter; it++ {
		m.MulVecLeft(next, x)
		next.Normalize()
		res.Iterations = it
		res.Residual = next.L1Diff(x)
		x, next = next, x
		if res.Residual <= tol {
			res.Converged = true
			break
		}
	}
	res.Vector = x
	return res, nil
}

// serialOnly wraps a CSR, exposing only the unfused interface so
// PowerLeft takes its fallback path.
type serialOnly struct{ m *CSR }

func (s serialOnly) Order() int               { return s.m.Order() }
func (s serialOnly) MulVecLeft(dst, x Vector) { s.m.MulVecLeft(dst, x) }

func randomStochasticCSR(rng *rand.Rand, n int) *CSR {
	var triples []Triple
	for i := 0; i < n; i++ {
		deg := rng.Intn(4) + 1
		for d := 0; d < deg; d++ {
			triples = append(triples, Triple{Row: i, Col: rng.Intn(n), Val: rng.Float64() + 0.1})
		}
	}
	return NewCSR(n, triples).NormalizeRows()
}

// The fused path (sum from the sweep, normalize+residual in one pass)
// must reproduce the classic three-sweep iteration bitwise: the sum is
// accumulated in the same index order as Vector.Sum, and the per-element
// updates are algebraically identical operations in identical order.
func TestPowerLeftFusedMatchesUnfusedBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(40) + 2
		m := randomStochasticCSR(rng, n)
		fused, errF := PowerLeft(m, PowerOptions{Tol: 1e-10})
		ref, _ := unfusedPowerLeft(m, PowerOptions{Tol: 1e-10})
		if errF != nil {
			t.Fatalf("trial %d: fused: %v", trial, errF)
		}
		if fused.Iterations != ref.Iterations || fused.Residual != ref.Residual {
			t.Fatalf("trial %d: iterations/residual %d/%g vs %d/%g",
				trial, fused.Iterations, fused.Residual, ref.Iterations, ref.Residual)
		}
		for i := range fused.Vector {
			if fused.Vector[i] != ref.Vector[i] {
				t.Fatalf("trial %d: π[%d] = %g, reference %g", trial, i, fused.Vector[i], ref.Vector[i])
			}
		}
	}
}

// The fallback (non-fused) path must agree with the fused one too.
func TestPowerLeftFallbackMatchesFused(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := randomStochasticCSR(rng, 30)
	fused, err1 := PowerLeft(m, PowerOptions{})
	plain, err2 := PowerLeft(serialOnly{m}, PowerOptions{})
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v, %v", err1, err2)
	}
	if fused.Vector.L1Diff(plain.Vector) != 0 {
		t.Errorf("fused vs fallback differ by %g", fused.Vector.L1Diff(plain.Vector))
	}
}

func TestPowerLeftScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := randomStochasticCSR(rng, 25)
	scratch := &PowerScratch{}
	first, err := PowerLeft(m, PowerOptions{Scratch: scratch})
	if err != nil {
		t.Fatal(err)
	}
	want := first.Vector.Clone()
	// Re-solving with the same scratch must reproduce the result and
	// alias a scratch buffer rather than allocating a fresh vector.
	second, err := PowerLeft(m, PowerOptions{Scratch: scratch})
	if err != nil {
		t.Fatal(err)
	}
	if second.Vector.L1Diff(want) != 0 {
		t.Errorf("re-solve differs by %g", second.Vector.L1Diff(want))
	}
	if &second.Vector[0] != &scratch.a[0] && &second.Vector[0] != &scratch.b[0] {
		t.Error("result does not alias scratch")
	}
	// Different order: scratch transparently regrows.
	m2 := randomStochasticCSR(rng, 40)
	if _, err := PowerLeft(m2, PowerOptions{Scratch: scratch}); err != nil {
		t.Fatal(err)
	}
}

// The headline budget: a steady-state PowerLeft solve with scratch on a
// fused operator allocates nothing at all.
func TestPowerLeftScratchZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m := randomStochasticCSR(rng, 64)
	scratch := &PowerScratch{}
	opts := PowerOptions{Scratch: scratch}
	if _, err := PowerLeft(m, opts); err != nil {
		t.Fatal(err)
	}
	var solveErr error
	allocs := testing.AllocsPerRun(20, func() {
		_, solveErr = PowerLeft(m, opts)
	})
	if solveErr != nil {
		t.Fatal(solveErr)
	}
	if allocs != 0 {
		t.Errorf("PowerLeft with scratch allocates %.1f per solve, want 0", allocs)
	}
}

// The same budget on several procs and a matrix large enough that a
// multiply once fanned out goroutines there. testing.AllocsPerRun cannot
// see that: it measures at GOMAXPROCS(1) whatever the test set, so this
// pin counts mallocs itself.
func TestPowerLeftScratchZeroAllocsMultiCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	m := randomStochasticCSR(rand.New(rand.NewSource(25)), 8192)
	if m.NNZ() < 1<<14 {
		t.Fatalf("%d stored entries, want ≥ %d", m.NNZ(), 1<<14)
	}
	opts := PowerOptions{Scratch: &PowerScratch{}}
	if _, err := PowerLeft(m, opts); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := PowerLeft(m, opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if allocs := (after.Mallocs - before.Mallocs) / runs; allocs != 0 {
		t.Errorf("PowerLeft with scratch allocates %d per solve at GOMAXPROCS=4, want 0", allocs)
	}
}
