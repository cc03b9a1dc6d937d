package rankutil

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTopK(t *testing.T) {
	scores := []float64{0.1, 0.5, 0.3, 0.5}
	top := TopK(scores, 3)
	if len(top) != 3 {
		t.Fatalf("len = %d", len(top))
	}
	// Ties (indices 1 and 3 at 0.5) break toward the lower index.
	if top[0].Index != 1 || top[1].Index != 3 || top[2].Index != 2 {
		t.Errorf("top = %+v", top)
	}
	if TopK(scores, 0) != nil {
		t.Error("k=0 should yield nil")
	}
	if got := len(TopK(scores, 99)); got != 4 {
		t.Errorf("oversized k: len = %d", got)
	}
}

// stableTopK is the full stable sort TopK used to run, kept as the
// reference its selection must reproduce.
func stableTopK(scores []float64, k int) []Entry {
	k = min(k, len(scores))
	if k <= 0 {
		return nil
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	out := make([]Entry, k)
	for i := range out {
		out[i] = Entry{Index: idx[i], Score: scores[idx[i]]}
	}
	return out
}

// TestTopKMatchesStableSort: the heap selection of a small k and the sort
// of a large one both give the full stable sort's prefix, on vectors with
// long ties, zeros of both signs and ascending, descending and shuffled
// layouts (ascending is the heap's worst case: every item displaces its
// root).
func TestTopKMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 400
	layouts := map[string][]float64{}
	ties := make([]float64, n)
	for i := range ties {
		switch rng.Intn(4) {
		case 0:
			ties[i] = 0
		case 1:
			ties[i] = math.Copysign(0, -1)
		default:
			ties[i] = float64(rng.Intn(5)) / 8
		}
	}
	layouts["ties and zeros"] = ties
	asc, desc := make([]float64, n), make([]float64, n)
	for i := range asc {
		asc[i] = float64(i / 3)
		desc[i] = float64((n - i) / 3)
	}
	layouts["ascending"], layouts["descending"] = asc, desc
	layouts["all equal"] = make([]float64, n)
	for name, scores := range layouts {
		for _, k := range []int{0, 1, 10, n - 1, n, n + 1} {
			got, want := TopK(scores, k), stableTopK(scores, k)
			if len(got) != len(want) {
				t.Errorf("%s, k=%d: %d entries, want %d", name, k, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i].Index != want[i].Index || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Errorf("%s, k=%d: entry %d is %+v, want %+v", name, k, i, got[i], want[i])
					break
				}
			}
		}
	}
}

func TestRanks(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5}
	ranks := Ranks(scores)
	want := []int{2, 0, 1}
	for i := range want {
		if ranks[i] != want[i] {
			t.Errorf("ranks = %v, want %v", ranks, want)
			break
		}
	}
}

func TestKendallTauExtremes(t *testing.T) {
	a := []float64{4, 3, 2, 1}
	if got := KendallTau(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("τ(a,a) = %g, want 1", got)
	}
	rev := []float64{1, 2, 3, 4}
	if got := KendallTau(a, rev); math.Abs(got+1) > 1e-12 {
		t.Errorf("τ(a,rev) = %g, want −1", got)
	}
}

func TestKendallTauPartial(t *testing.T) {
	// One discordant pair among six: τ = (5−1)/6 = 2/3.
	a := []float64{4, 3, 2, 1}
	b := []float64{4, 3, 1, 2}
	if got := KendallTau(a, b); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("τ = %g, want 2/3", got)
	}
}

func TestKendallTauDegenerate(t *testing.T) {
	if got := KendallTau([]float64{1}, []float64{2}); got != 0 {
		t.Errorf("single item τ = %g", got)
	}
	if got := KendallTau([]float64{1, 1}, []float64{2, 2}); got != 0 {
		t.Errorf("all-ties τ = %g", got)
	}
}

func TestSpearmanRhoExtremes(t *testing.T) {
	a := []float64{10, 8, 6, 4}
	if got := SpearmanRho(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("ρ(a,a) = %g", got)
	}
	rev := []float64{4, 6, 8, 10}
	if got := SpearmanRho(a, rev); math.Abs(got+1) > 1e-12 {
		t.Errorf("ρ(a,rev) = %g", got)
	}
}

func TestSpearmanFootrule(t *testing.T) {
	a := []float64{4, 3, 2, 1}
	if got := SpearmanFootrule(a, a); got != 0 {
		t.Errorf("footrule(a,a) = %g", got)
	}
	rev := []float64{1, 2, 3, 4}
	if got := SpearmanFootrule(a, rev); math.Abs(got-1) > 1e-12 {
		t.Errorf("footrule(a,rev) = %g, want 1", got)
	}
}

func TestOverlapAtK(t *testing.T) {
	a := []float64{10, 9, 8, 1, 2}
	b := []float64{10, 9, 1, 8, 2}
	if got := OverlapAtK(a, b, 3); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("overlap@3 = %g, want 2/3", got)
	}
	if got := OverlapAtK(a, a, 5); got != 1 {
		t.Errorf("overlap with self = %g", got)
	}
	if got := OverlapAtK(a, b, 0); got != 0 {
		t.Errorf("overlap@0 = %g", got)
	}
}

func TestContaminationAtK(t *testing.T) {
	scores := []float64{0.5, 0.4, 0.3, 0.2}
	flagged := []bool{true, false, true, false}
	if got := ContaminationAtK(scores, flagged, 2); got != 0.5 {
		t.Errorf("contamination@2 = %g, want 0.5", got)
	}
	if got := ContaminationAtK(scores, flagged, 4); got != 0.5 {
		t.Errorf("contamination@4 = %g, want 0.5", got)
	}
	none := make([]bool, 4)
	if got := ContaminationAtK(scores, none, 4); got != 0 {
		t.Errorf("clean contamination = %g", got)
	}
}

func TestPanicsOnLengthMismatch(t *testing.T) {
	for name, fn := range map[string]func(){
		"KendallTau":       func() { KendallTau([]float64{1}, []float64{1, 2}) },
		"SpearmanRho":      func() { SpearmanRho([]float64{1}, []float64{1, 2}) },
		"SpearmanFootrule": func() { SpearmanFootrule([]float64{1}, []float64{1, 2}) },
		"Contamination":    func() { ContaminationAtK([]float64{1}, []bool{true, false}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: τ and ρ are symmetric, bounded by [−1, 1], and equal 1 against
// any strictly monotone transform of the scores.
func TestCorrelationPropertiesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 2
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		tau := KendallTau(a, b)
		rho := SpearmanRho(a, b)
		if tau < -1-1e-12 || tau > 1+1e-12 || rho < -1-1e-12 || rho > 1+1e-12 {
			return false
		}
		if math.Abs(tau-KendallTau(b, a)) > 1e-12 {
			return false
		}
		// Monotone transform of a: order preserved exactly.
		mono := make([]float64, n)
		for i, x := range a {
			mono[i] = 3*x + 7
		}
		return math.Abs(KendallTau(a, mono)-kendallSelf(a)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// kendallSelf returns τ(a, a): exactly 1 unless everything ties (then 0).
func kendallSelf(a []float64) float64 {
	return KendallTau(a, a)
}

// Property: footrule is 0 iff orders agree; overlap@k of a vector with
// itself is always 1 for valid k.
func TestFootruleOverlapQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(15) + 2
		a := make([]float64, n)
		for i := range a {
			a[i] = rng.Float64()
		}
		if SpearmanFootrule(a, a) != 0 {
			return false
		}
		k := rng.Intn(n) + 1
		return OverlapAtK(a, a, k) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
