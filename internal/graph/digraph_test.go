package graph

import (
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
