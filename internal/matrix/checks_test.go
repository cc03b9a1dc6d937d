package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIsIrreducible(t *testing.T) {
	tests := []struct {
		name string
		m    *Dense
		want bool
	}{
		{
			"two-cycle",
			FromRows([][]float64{{0, 1}, {1, 0}}),
			true,
		},
		{
			"absorbing state",
			FromRows([][]float64{{0.5, 0.5}, {0, 1}}),
			false,
		},
		{
			"single state",
			FromRows([][]float64{{1}}),
			true,
		},
		{
			"positive 3x3",
			FromRows([][]float64{{0.2, 0.4, 0.4}, {0.3, 0.3, 0.4}, {0.5, 0.25, 0.25}}),
			true,
		},
		{
			"two blocks",
			FromRows([][]float64{
				{0, 1, 0, 0},
				{1, 0, 0, 0},
				{0, 0, 0, 1},
				{0, 0, 1, 0},
			}),
			false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := IsIrreducible(tt.m); got != tt.want {
				t.Errorf("IsIrreducible = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestStrongComponents(t *testing.T) {
	// 0↔1 one SCC, 2 alone (sink), 3 alone pointing into the first SCC.
	m := FromRows([][]float64{
		{0, 1, 0, 0},
		{1, 0, 1, 0},
		{0, 0, 0, 0},
		{1, 0, 0, 0},
	})
	comp, n := StrongComponents(m)
	if n != 3 {
		t.Fatalf("component count = %d, want 3", n)
	}
	if comp[0] != comp[1] {
		t.Errorf("0 and 1 should share a component: %v", comp)
	}
	if comp[2] == comp[0] || comp[3] == comp[0] || comp[2] == comp[3] {
		t.Errorf("2 and 3 should be singleton components: %v", comp)
	}
}

func TestPeriod(t *testing.T) {
	tests := []struct {
		name string
		m    *Dense
		want int
	}{
		{"two-cycle", FromRows([][]float64{{0, 1}, {1, 0}}), 2},
		{
			"three-cycle",
			FromRows([][]float64{{0, 1, 0}, {0, 0, 1}, {1, 0, 0}}),
			3,
		},
		{
			"self-loop breaks periodicity",
			FromRows([][]float64{{0.5, 0.5}, {1, 0}}),
			1,
		},
		{
			"paper Y is aperiodic",
			FromRows([][]float64{{0.1, 0.3, 0.6}, {0.2, 0.4, 0.4}, {0.3, 0.5, 0.2}}),
			1,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Period(tt.m); got != tt.want {
				t.Errorf("Period = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestIsPrimitive(t *testing.T) {
	if IsPrimitive(FromRows([][]float64{{0, 1}, {1, 0}})) {
		t.Error("periodic chain reported primitive")
	}
	if !IsPrimitive(FromRows([][]float64{{0.5, 0.5}, {1, 0}})) {
		t.Error("aperiodic irreducible chain not primitive")
	}
	if IsPrimitive(FromRows([][]float64{{0.5, 0.5}, {0, 1}})) {
		t.Error("reducible chain reported primitive")
	}
}

func TestIsPositive(t *testing.T) {
	if !FromRows([][]float64{{0.1, 0.9}, {0.4, 0.6}}).IsPositive() {
		t.Error("positive matrix rejected")
	}
	if FromRows([][]float64{{0, 1}, {1, 0}}).IsPositive() {
		t.Error("matrix with zero accepted")
	}
}

// rowPattern is a CSR's stored positive entries as adjacency rows,
// read off its column walk: the sparse Sparsity these tests and
// benchmarks hand the structural checks (graph.Digraph is the one the
// program hands them).
type rowPattern [][]int

func patternOf(m *CSR) rowPattern {
	p := make(rowPattern, m.Order())
	m.walkColumns(0, m.Order(), func(i, j int, mult, div float64) {
		if mult/div > 0 {
			p[i] = append(p[i], j)
		}
	})
	return p
}

func (p rowPattern) Order() int { return len(p) }

func (p rowPattern) EachNonZero(i int, fn func(col int)) {
	for _, j := range p[i] {
		fn(j)
	}
}

func TestChecksOnCSR(t *testing.T) {
	cyc := patternOf(NewCSR(3, []Triple{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}}))
	if !IsIrreducible(cyc) {
		t.Error("3-cycle CSR should be irreducible")
	}
	if Period(cyc) != 3 {
		t.Errorf("Period = %d, want 3", Period(cyc))
	}
	if IsPrimitive(cyc) {
		t.Error("3-cycle is not primitive")
	}
}

// Property: a strictly positive random matrix is always primitive
// (positive ⇒ irreducible & aperiodic).
func TestPositiveImpliesPrimitiveQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 1
		m := randomStochastic(rng, n)
		return m.IsPositive() && IsPrimitive(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: primitivity verdicts agree between Dense and CSR views of the
// same random sparse pattern.
func TestPrimitivityDenseCSRAgreeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 2
		var triples []Triple
		for i := 0; i < n; i++ {
			deg := rng.Intn(3) + 1
			for k := 0; k < deg; k++ {
				triples = append(triples, Triple{i, rng.Intn(n), 1})
			}
		}
		csr := NewCSR(n, triples)
		sp, dn := patternOf(csr), csr.Dense()
		if IsIrreducible(sp) != IsIrreducible(dn) {
			return false
		}
		if IsIrreducible(sp) && Period(sp) != Period(dn) {
			return false
		}
		return IsPrimitive(sp) == IsPrimitive(dn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSCCAgainstBruteForceQuick cross-checks Tarjan against the
// definition: i and j share a component iff each reaches the other.
func TestSCCAgainstBruteForceQuick(t *testing.T) {
	reachable := func(m Sparsity, from int) []bool {
		n := m.Order()
		seen := make([]bool, n)
		stack := []int{from}
		seen[from] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			m.EachNonZero(u, func(v int) {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			})
		}
		return seen
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(9) + 2
		var triples []Triple
		for e := rng.Intn(3 * n); e > 0; e-- {
			triples = append(triples, Triple{rng.Intn(n), rng.Intn(n), 1})
		}
		m := patternOf(NewCSR(n, triples))
		comp, _ := StrongComponents(m)
		reach := make([][]bool, n)
		for i := 0; i < n; i++ {
			reach[i] = reachable(m, i)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				same := reach[i][j] && reach[j][i]
				if (comp[i] == comp[j]) != same {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
