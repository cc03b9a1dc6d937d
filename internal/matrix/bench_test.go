package matrix

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchCSR(n, degree int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	triples := make([]Triple, 0, n*degree)
	for i := 0; i < n; i++ {
		for k := 0; k < degree; k++ {
			triples = append(triples, Triple{Row: i, Col: rng.Intn(n), Val: 1})
		}
	}
	return NewCSR(n, triples).NormalizeRows()
}

func BenchmarkDenseMulVecLeft(b *testing.B) {
	for _, n := range []int{100, 500} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			m := NewDense(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					m.Set(i, j, rng.Float64())
				}
			}
			m.NormalizeRows()
			x := Uniform(n)
			dst := NewVector(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MulVecLeft(dst, x)
			}
		})
	}
}

func BenchmarkCSRMulVecLeft(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d_deg=8", n), func(b *testing.B) {
			m := benchCSR(n, 8, 1)
			x := Uniform(n)
			dst := NewVector(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MulVecLeft(dst, x)
			}
		})
	}
}

func BenchmarkNewCSR(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := 10000
	triples := make([]Triple, 0, n*8)
	for i := 0; i < n; i++ {
		for k := 0; k < 8; k++ {
			triples = append(triples, Triple{Row: rng.Intn(n), Col: rng.Intn(n), Val: 1})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewCSR(n, triples)
	}
}

func BenchmarkPowerLeftCSR(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := benchCSR(n, 8, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Tolerance loose enough to converge on all seeds.
				if _, err := PowerLeft(m, PowerOptions{Tol: 1e-8, MaxIter: 5000}); err != nil {
					b.Skip("chain not convergent for this seed")
				}
			}
		})
	}
}

func BenchmarkStationaryExact(b *testing.B) {
	for _, n := range []int{10, 50, 200} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			m := randomStochastic(rng, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := StationaryExact(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStrongComponents(b *testing.B) {
	m := patternOf(benchCSR(50000, 4, 5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StrongComponentCount(m)
	}
}
