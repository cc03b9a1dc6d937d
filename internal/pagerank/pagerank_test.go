package pagerank

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lmmrank/internal/graph"
	"lmmrank/internal/matrix"
)

// paperU1..U3 are the sub-state matrices of the paper's §2.3 example with
// their published local PageRank vectors (α = f = 0.85).
func paperU1() *matrix.Dense {
	return matrix.FromRows([][]float64{
		{0.3, 0.3, 0.2, 0.2},
		{0.5, 0.1, 0.1, 0.3},
		{0.1, 0.2, 0.6, 0.1},
		{0.4, 0.3, 0.1, 0.2},
	})
}

func paperU2() *matrix.Dense {
	return matrix.FromRows([][]float64{
		{0.2, 0.1, 0.7},
		{0.1, 0.8, 0.1},
		{0.05, 0.05, 0.9},
	})
}

func paperU3() *matrix.Dense {
	return matrix.FromRows([][]float64{
		{0.6, 0.02, 0.2, 0.1, 0.08},
		{0.05, 0.2, 0.5, 0.05, 0.2},
		{0.4, 0.1, 0.2, 0.1, 0.2},
		{0.7, 0.1, 0.05, 0.1, 0.05},
		{0.5, 0.2, 0.1, 0.1, 0.1},
	})
}

func TestDenseReproducesPaperLocalRanks(t *testing.T) {
	tests := []struct {
		name string
		u    *matrix.Dense
		want matrix.Vector
	}{
		{"π1G", paperU1(), matrix.Vector{0.3054, 0.2312, 0.2582, 0.2052}},
		{"π2G", paperU2(), matrix.Vector{0.1191, 0.2691, 0.6117}},
		{"π3G", paperU3(), matrix.Vector{0.4557, 0.1038, 0.2014, 0.1106, 0.1285}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := Dense(tt.u, Config{})
			if err != nil {
				t.Fatalf("Dense: %v", err)
			}
			if !res.Converged {
				t.Fatal("did not converge")
			}
			if res.Scores.L1Diff(tt.want) > 5e-4 {
				t.Errorf("scores = %v, want ≈ %v (paper)", res.Scores, tt.want)
			}
		})
	}
}

func TestDenseReproducesPaperSiteRank(t *testing.T) {
	// §2.3.3 Approach 3: πY = (0.2315, 0.4015, 0.3670).
	y := matrix.FromRows([][]float64{
		{0.1, 0.3, 0.6},
		{0.2, 0.4, 0.4},
		{0.3, 0.5, 0.2},
	})
	res, err := Dense(y, Config{})
	if err != nil {
		t.Fatalf("Dense: %v", err)
	}
	want := matrix.Vector{0.2315, 0.4015, 0.3670}
	if res.Scores.L1Diff(want) > 5e-4 {
		t.Errorf("πY = %v, want ≈ %v", res.Scores, want)
	}
}

func TestSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 30
	var triples []matrix.Triple
	for i := 0; i < n; i++ {
		if i%7 == 3 {
			continue // leave some dangling rows
		}
		deg := rng.Intn(4) + 1
		for k := 0; k < deg; k++ {
			triples = append(triples, matrix.Triple{Row: i, Col: rng.Intn(n), Val: 1})
		}
	}
	sp := matrix.NewCSR(n, triples).NormalizeRows()
	dn := sp.Dense()

	a, err := Sparse(sp, Config{})
	if err != nil {
		t.Fatalf("Sparse: %v", err)
	}
	b, err := Dense(dn, Config{})
	if err != nil {
		t.Fatalf("Dense: %v", err)
	}
	if a.Scores.L1Diff(b.Scores) > 1e-8 {
		t.Errorf("sparse %v vs dense %v", a.Scores, b.Scores)
	}
}

func TestGraphPageRankFavorsHighInDegree(t *testing.T) {
	// Star: everyone links to node 0; node 0 links to node 1.
	g := graph.NewDigraph(5)
	for i := 1; i < 5; i++ {
		g.AddLink(i, 0)
	}
	g.AddLink(0, 1)
	res, err := Graph(g, Config{})
	if err != nil {
		t.Fatalf("Graph: %v", err)
	}
	if res.Scores.ArgMax() != 0 {
		t.Errorf("hub should rank first: %v", res.Scores)
	}
	if res.Scores[1] <= res.Scores[2] {
		t.Errorf("node 1 (linked from hub) should outrank leaf: %v", res.Scores)
	}
}

func TestDanglingNodesHandled(t *testing.T) {
	// 0 → 1, 1 dangling. Scores must still form a distribution and give 1
	// more mass than 0 (it receives 0's link plus teleport).
	g := graph.NewDigraph(2)
	g.AddLink(0, 1)
	res, err := Graph(g, Config{})
	if err != nil {
		t.Fatalf("Graph: %v", err)
	}
	if !res.Scores.IsDistribution(1e-9) {
		t.Errorf("scores not a distribution: %v", res.Scores)
	}
	if res.Scores[1] <= res.Scores[0] {
		t.Errorf("dangling target should outrank source: %v", res.Scores)
	}
}

func TestPersonalizationBiasesScores(t *testing.T) {
	// Symmetric 2-cycle: uniform teleport gives (.5,.5); biasing the
	// teleport toward node 0 must raise its score.
	m := matrix.FromRows([][]float64{{0, 1}, {1, 0}})
	biased, err := Dense(m, Config{Personalization: matrix.Vector{0.9, 0.1}})
	if err != nil {
		t.Fatalf("Dense: %v", err)
	}
	if biased.Scores[0] <= 0.5 {
		t.Errorf("personalized score = %v, want node 0 above 0.5", biased.Scores)
	}
}

func TestMinimalEquivalentToDense(t *testing.T) {
	u := paperU2()
	a, err := Dense(u, Config{})
	if err != nil {
		t.Fatalf("Dense: %v", err)
	}
	b, err := Minimal(u, Config{})
	if err != nil {
		t.Fatalf("Minimal: %v", err)
	}
	if a.Scores.L1Diff(b.Scores) > 1e-8 {
		t.Errorf("maximal %v vs minimal %v", a.Scores, b.Scores)
	}
}

func TestConfigValidation(t *testing.T) {
	m := matrix.FromRows([][]float64{{0, 1}, {1, 0}})
	tests := []struct {
		name string
		cfg  Config
	}{
		{"damping 1", Config{Damping: 1}},
		{"damping negative", Config{Damping: -0.5}},
		{"damping NaN", Config{Damping: math.NaN()}},
		{"tolerance NaN", Config{Tol: math.NaN()}},
		{"tolerance negative", Config{Tol: -1}},
		{"iteration budget negative", Config{MaxIter: -1}},
		{"personalization length", Config{Personalization: matrix.Vector{1}}},
		{"personalization negative", Config{Personalization: matrix.Vector{1.5, -0.5}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Dense(m, tt.cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestStartVectorAcceleratesConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 40
	var triples []matrix.Triple
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			triples = append(triples, matrix.Triple{Row: i, Col: rng.Intn(n), Val: 1})
		}
	}
	sp := matrix.NewCSR(n, triples).NormalizeRows()
	cold, err := Sparse(sp, Config{})
	if err != nil {
		t.Fatalf("Sparse: %v", err)
	}
	warm, err := Sparse(sp, Config{Start: cold.Scores})
	if err != nil {
		t.Fatalf("Sparse warm: %v", err)
	}
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm start took %d iterations vs cold %d", warm.Iterations, cold.Iterations)
	}
	if warm.Scores.L1Diff(cold.Scores) > 1e-8 {
		t.Errorf("warm and cold results differ")
	}
}

// Property: PageRank always yields a probability distribution whose
// minimum is at least the teleport floor (1−f)·min(v) > 0.
func TestScoresDistributionQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(25) + 2
		g := graph.NewDigraph(n)
		for e := rng.Intn(4 * n); e > 0; e-- {
			g.AddLink(rng.Intn(n), rng.Intn(n))
		}
		res, err := Graph(g, Config{})
		if err != nil || !res.Scores.IsDistribution(1e-8) {
			return false
		}
		floor := 0.15 / float64(n)
		for _, s := range res.Scores {
			if s < floor-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Minimal and Dense agree on random chains with random damping —
// the Langville–Meyer equivalence at the API level.
func TestMinimalMaximalEquivalenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 2
		m := matrix.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, rng.Float64())
			}
		}
		m.NormalizeRows()
		cfg := Config{Damping: 0.3 + 0.6*rng.Float64()}
		a, errA := Dense(m, cfg)
		b, errB := Minimal(m, cfg)
		if errA != nil || errB != nil {
			return false
		}
		return a.Scores.L1Diff(b.Scores) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: total PageRank mass lost by damping is redistributed — the sum
// of score differences between two damping factors is ~0 (both normalize).
func TestDampingSweepStillDistribution(t *testing.T) {
	m := paperU3()
	for _, f := range []float64{0.5, 0.7, 0.85, 0.99} {
		res, err := Dense(m, Config{Damping: f})
		if err != nil {
			t.Fatalf("f=%g: %v", f, err)
		}
		if !res.Scores.IsDistribution(1e-9) {
			t.Errorf("f=%g: not a distribution", f)
		}
		if math.Abs(res.Scores.Sum()-1) > 1e-9 {
			t.Errorf("f=%g: sum %g", f, res.Scores.Sum())
		}
	}
}
