package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUniform(t *testing.T) {
	v := Uniform(4)
	if len(v) != 4 {
		t.Fatalf("len = %d, want 4", len(v))
	}
	for i, x := range v {
		if x != 0.25 {
			t.Errorf("v[%d] = %g, want 0.25", i, x)
		}
	}
	if !v.IsDistribution(1e-12) {
		t.Error("uniform vector should be a distribution")
	}
}

func TestUniformPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uniform(0) did not panic")
		}
	}()
	Uniform(0)
}

func TestBasis(t *testing.T) {
	v := Basis(3, 1)
	want := Vector{0, 1, 0}
	if v.L1Diff(want) != 0 {
		t.Errorf("Basis(3,1) = %v, want %v", v, want)
	}
}

func TestBasisPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Basis(3,3) did not panic")
		}
	}()
	Basis(3, 3)
}

func TestCloneIndependence(t *testing.T) {
	v := Vector{1, 2, 3}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Error("Clone aliases the original")
	}
}

func TestSumDot(t *testing.T) {
	v := Vector{1, 2, 3}
	if got := v.Sum(); got != 6 {
		t.Errorf("Sum = %g, want 6", got)
	}
	w := Vector{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %g, want 32", got)
	}
}

func TestScaleAddScaledFill(t *testing.T) {
	v := Vector{1, 2}.Scale(2)
	if v[0] != 2 || v[1] != 4 {
		t.Errorf("Scale: got %v", v)
	}
	v.Fill(0.5)
	if v[0] != 0.5 || v[1] != 0.5 {
		t.Errorf("Fill: got %v", v)
	}
}

func TestNormalize(t *testing.T) {
	v := Vector{2, 6}.Normalize()
	if math.Abs(v[0]-0.25) > 1e-15 || math.Abs(v[1]-0.75) > 1e-15 {
		t.Errorf("Normalize: got %v", v)
	}
}

func TestNormalizeZeroFallsBackToUniform(t *testing.T) {
	v := Vector{0, 0, 0, 0}.Normalize()
	for i, x := range v {
		if x != 0.25 {
			t.Errorf("v[%d] = %g, want 0.25", i, x)
		}
	}
}

func TestNormalizeNaNFallsBackToUniform(t *testing.T) {
	v := Vector{math.NaN(), 1}.Normalize()
	if v[0] != 0.5 || v[1] != 0.5 {
		t.Errorf("got %v, want uniform", v)
	}
}

func TestL1AndMaxDiff(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{2, 0, 3}
	if got := v.L1Diff(w); got != 3 {
		t.Errorf("L1Diff = %g, want 3", got)
	}
	if got := v.MaxAbsDiff(w); got != 2 {
		t.Errorf("MaxAbsDiff = %g, want 2", got)
	}
}

func TestIsDistribution(t *testing.T) {
	tests := []struct {
		name string
		v    Vector
		want bool
	}{
		{"uniform", Uniform(5), true},
		{"empty", Vector{}, false},
		{"negative", Vector{-0.5, 1.5}, false},
		{"sum short", Vector{0.4, 0.4}, false},
		{"nan", Vector{math.NaN(), 1}, false},
		{"exact", Vector{0.25, 0.75}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.IsDistribution(1e-9); got != tt.want {
				t.Errorf("IsDistribution(%v) = %v, want %v", tt.v, got, tt.want)
			}
		})
	}
}

func TestArgMax(t *testing.T) {
	v := Vector{0.1, 0.7, 0.7, 0.2}
	if got := v.ArgMax(); got != 1 {
		t.Errorf("ArgMax = %d, want 1 (first of ties)", got)
	}
}

func TestVectorString(t *testing.T) {
	v := Vector{0.25, 0.75}
	if got := v.String(); got != "[0.2500 0.7500]" {
		t.Errorf("String = %q", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths did not panic")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

// Property: Normalize always yields a distribution for random nonnegative
// non-degenerate input.
func TestNormalizeQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n%64) + 1
		v := NewVector(size)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v.Normalize().IsDistribution(1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: L1Diff is a metric — symmetric, zero on identity, triangle
// inequality.
func TestL1DiffMetricQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 1
		a, b, c := NewVector(n), NewVector(n), NewVector(n)
		for i := 0; i < n; i++ {
			a[i], b[i], c[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		if a.L1Diff(a) != 0 {
			return false
		}
		if math.Abs(a.L1Diff(b)-b.L1Diff(a)) > 1e-12 {
			return false
		}
		return a.L1Diff(c) <= a.L1Diff(b)+b.L1Diff(c)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
