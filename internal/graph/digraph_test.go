package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lmmrank/internal/matrix"
)

func TestDigraphBasics(t *testing.T) {
	g := NewDigraph(3)
	if g.NumNodes() != 3 || g.NumEdges() != 0 {
		t.Fatalf("fresh graph: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	g.AddLink(0, 1)
	g.AddLink(0, 2)
	g.AddLink(2, 0)
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.OutDegree(1) != 0 {
		t.Errorf("degrees: %d %d", g.OutDegree(0), g.OutDegree(1))
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := NewDigraph(2)
	for _, fn := range []func(){
		func() { g.AddLink(0, 2) },
		func() { g.AddLink(-1, 0) },
		func() { g.AddEdge(0, 1, 0) },
		func() { g.AddEdge(0, 1, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestDedupeMergesParallelEdges(t *testing.T) {
	g := NewDigraph(2)
	g.AddLink(0, 1)
	g.AddLink(0, 1)
	g.AddEdge(0, 1, 3)
	g.Dedupe()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d after dedupe", g.NumEdges())
	}
	var got float64
	g.EachEdge(0, func(e Edge) { got = e.Weight })
	if got != 5 {
		t.Errorf("merged weight = %g, want 5", got)
	}
}

func TestDedupeSortsByTarget(t *testing.T) {
	g := NewDigraph(4)
	g.AddLink(0, 3)
	g.AddLink(0, 1)
	g.AddLink(0, 2)
	g.Dedupe()
	var order []int
	g.EachEdge(0, func(e Edge) { order = append(order, e.To) })
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestEnsureNodes(t *testing.T) {
	g := NewDigraph(1)
	g.EnsureNodes(5)
	if g.NumNodes() != 5 {
		t.Errorf("NumNodes = %d", g.NumNodes())
	}
	g.EnsureNodes(2) // never shrinks
	if g.NumNodes() != 5 {
		t.Errorf("NumNodes = %d after no-op EnsureNodes", g.NumNodes())
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1, 2)
	g.AddLink(1, 2)
	tt := g.Transpose()
	var w float64
	tt.EachEdge(1, func(e Edge) {
		if e.To == 0 {
			w = e.Weight
		}
	})
	if w != 2 {
		t.Errorf("transposed edge weight = %g", w)
	}
	back := tt.Transpose()
	back.Dedupe()
	g.Dedupe()
	if back.NumEdges() != g.NumEdges() {
		t.Errorf("double transpose changed edge count")
	}
}

func TestInDegreesAndDangling(t *testing.T) {
	g := NewDigraph(3)
	g.AddLink(0, 2)
	g.AddLink(1, 2)
	in := g.InDegrees()
	if in[2] != 2 || in[0] != 0 {
		t.Errorf("InDegrees = %v", in)
	}
	d := g.Dangling()
	if len(d) != 1 || d[0] != 2 {
		t.Errorf("Dangling = %v, want [2]", d)
	}
}

func TestTransitionMatrix(t *testing.T) {
	g := NewDigraph(3)
	g.AddLink(0, 1)
	g.AddLink(0, 2)
	g.AddEdge(1, 0, 3) // weight 3 — still a single target, so prob 1
	m := g.TransitionMatrix()
	if m.At(0, 1) != 0.5 || m.At(0, 2) != 0.5 {
		t.Errorf("row 0 = %g %g", m.At(0, 1), m.At(0, 2))
	}
	if m.At(1, 0) != 1 {
		t.Errorf("row 1 = %g", m.At(1, 0))
	}
	// Dangling node 2 keeps an all-zero row.
	if got := m.RowSums()[2]; got != 0 {
		t.Errorf("dangling row sum = %g", got)
	}
}

func TestTransitionMatrixWeighted(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 3)
	m := g.TransitionMatrix()
	if math.Abs(m.At(0, 1)-0.25) > 1e-15 || math.Abs(m.At(0, 2)-0.75) > 1e-15 {
		t.Errorf("weighted row = %g %g", m.At(0, 1), m.At(0, 2))
	}
}

func TestDigraphImplementsSparsity(t *testing.T) {
	g := NewDigraph(3)
	g.AddLink(0, 1)
	g.AddLink(1, 2)
	g.AddLink(2, 0)
	if !matrix.IsIrreducible(g) {
		t.Error("3-cycle graph should be irreducible")
	}
	if matrix.IsPrimitive(g) {
		t.Error("3-cycle is periodic, not primitive")
	}
	g.AddLink(0, 0)
	if !matrix.IsPrimitive(g) {
		t.Error("self-loop makes it primitive")
	}
}

func TestCloneIndependent(t *testing.T) {
	g := NewDigraph(2)
	g.AddLink(0, 1)
	c := g.Clone()
	c.AddLink(1, 0)
	if g.NumEdges() != 1 {
		t.Error("Clone aliases original adjacency")
	}
}

// Property: for random graphs, TransitionMatrix rows sum to 1 exactly for
// non-dangling nodes and 0 for dangling ones; total out-weight is
// preserved by Dedupe.
func TestTransitionMatrixStochasticQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 1
		g := NewDigraph(n)
		for e := rng.Intn(4 * n); e > 0; e-- {
			g.AddEdge(rng.Intn(n), rng.Intn(n), rng.Float64()+0.1)
		}
		before := make([]float64, n)
		for i := 0; i < n; i++ {
			before[i] = g.OutWeight(i)
		}
		m := g.TransitionMatrix()
		sums := m.RowSums()
		for i := 0; i < n; i++ {
			if before[i] == 0 {
				if sums[i] != 0 {
					return false
				}
			} else if math.Abs(sums[i]-1) > 1e-9 {
				return false
			}
			if math.Abs(g.OutWeight(i)-before[i]) > 1e-9 {
				return false // dedupe changed total weight
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// weightedEdge is one AddEdge call of a reference-checked graph.
type weightedEdge struct {
	from, to int
	w        float64
}

// transitionReference builds the graph of edges and the dense matrix its
// transition matrix should be: every (from, to) weight summed, over its
// source's out-weight. The weights of the callers are small multiples of
// 1/4, so every sum is exact in any order and w/out-weight is one
// correctly rounded quotient.
func transitionReference(n int, edges []weightedEdge) (*Digraph, [][]float64) {
	g := NewDigraph(n)
	w := make([][]float64, n)
	total := make([]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for _, e := range edges {
		g.AddEdge(e.from, e.to, e.w)
		w[e.from][e.to] += e.w
		total[e.from] += e.w
	}
	for i := range w {
		for j := range w[i] {
			if w[i][j] != 0 {
				w[i][j] /= total[i]
			}
		}
	}
	return g, w
}

// withinULP reports whether got is want or its floating-point neighbour.
func withinULP(got, want float64) bool {
	return got == want || math.Nextafter(want, got) == got
}

// checkTransition compares a transition matrix with its dense reference
// through every reader of it: At, Dense, RowSums, Diagonal and
// DanglingRows, each within one ulp of w/out-weight.
func checkTransition(m *matrix.CSR, want [][]float64) error {
	n := len(want)
	dense, sums := m.Dense(), m.RowSums()
	diag, dangling := m.Diagonal(), m.DanglingRows()
	var wantDangling []int
	selfLoops := false
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			if got := m.At(i, j); !withinULP(got, want[i][j]) {
				return fmt.Errorf("At(%d,%d) = %v, want %v", i, j, got, want[i][j])
			}
			if got := dense.At(i, j); !withinULP(got, want[i][j]) {
				return fmt.Errorf("Dense[%d][%d] = %v, want %v", i, j, got, want[i][j])
			}
			sum += want[i][j]
		}
		if !withinULP(sums[i], sum) {
			return fmt.Errorf("RowSums[%d] = %v, want %v", i, sums[i], sum)
		}
		if sum == 0 {
			wantDangling = append(wantDangling, i)
		} else if math.Abs(sums[i]-1) > 1e-12 {
			return fmt.Errorf("row %d sums to %v", i, sums[i])
		}
		selfLoops = selfLoops || want[i][i] != 0
	}
	if fmt.Sprint(dangling) != fmt.Sprint(wantDangling) {
		return fmt.Errorf("DanglingRows = %v, want %v", dangling, wantDangling)
	}
	if (diag != nil) != selfLoops {
		return fmt.Errorf("Diagonal = %v with self-loops %v", diag, selfLoops)
	}
	for j := range diag {
		if !withinULP(diag[j], want[j][j]) {
			return fmt.Errorf("Diagonal[%d] = %v, want %v", j, diag[j], want[j][j])
		}
	}
	return nil
}

// TestTransitionMatrixMatchesWeights: a transition matrix stores a link
// as its source alone and lists the links of weight other than 1; read
// back, every entry is w/out-weight — on multiplicities 1–7 (repeated
// links and heavy AddEdge calls), weights 2.5 and 0.5, self-loops,
// dangling rows and one-row sites with and without a self-loop.
func TestTransitionMatrixMatchesWeights(t *testing.T) {
	shapes := map[string]struct {
		n     int
		edges []weightedEdge
	}{
		"one row":             {1, nil},
		"one row, self-loop":  {1, []weightedEdge{{0, 0, 1}}},
		"one row, heavy loop": {1, []weightedEdge{{0, 0, 2.5}}},
		"fractions": {3, []weightedEdge{
			{0, 1, 2.5}, {0, 2, 0.5}, {1, 1, 0.5}, {1, 0, 1}, {1, 0, 1}}},
	}
	rng := rand.New(rand.NewSource(28))
	weights := []float64{1, 1, 1, 1, 1, 2, 3, 4, 5, 6, 7, 2.5, 0.5}
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(12) + 1
		var edges []weightedEdge
		for e := rng.Intn(5 * n); e > 0; e-- {
			from := rng.Intn(n)
			if from%4 == 3 {
				continue // leave some rows dangling
			}
			to := rng.Intn(n)
			if e%6 == 0 {
				to = from
			}
			edges = append(edges, weightedEdge{from, to, weights[rng.Intn(len(weights))]})
			if e%3 == 0 {
				edges = append(edges, weightedEdge{from, to, 1}) // a repeated link
			}
		}
		shapes[fmt.Sprintf("random %d", trial)] = struct {
			n     int
			edges []weightedEdge
		}{n, edges}
	}
	for name, c := range shapes {
		g, want := transitionReference(c.n, c.edges)
		if err := checkTransition(g.TransitionMatrix(), want); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
