// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the quantitative experiments implied by its prose
// claims. Each experiment has a Run function returning a structured
// result and a Format method emitting a paper-style text table. The
// experiment IDs (E1–E8) are indexed in cmd/experiments' usage comment.
package experiments

import (
	"fmt"
	"strings"

	"lmmrank/internal/lmm"
	"lmmrank/internal/matrix"
)

// Fig2Result bundles experiment E1/E2: the §2.3 worked example.
type Fig2Result struct {
	// All holds the four approaches computed on the paper's model.
	All *lmm.All
	// Published paper vectors for comparison.
	WantPiW, WantPiWTilde matrix.Vector
	WantOrder             []int
	// MaxDeviation is the largest |measured − published| across both
	// Figure 2 vectors.
	MaxDeviation float64
	// OrderMatches reports whether both approaches reproduce the
	// published rank order exactly.
	OrderMatches bool
	// PartitionGap is ‖Approach2 − Approach4‖₁ (Corollary 1 ⇒ ≈ 0).
	PartitionGap float64
}

// RunFig2 reproduces Figure 2 and the §2.3.2–2.3.3 vectors with the
// standard α = f = 0.85.
func RunFig2() (*Fig2Result, error) {
	model := lmm.PaperExample()
	all, err := lmm.ComputeAll(model, lmm.Config{Tol: 1e-12})
	if err != nil {
		return nil, fmt.Errorf("experiments: fig2: %w", err)
	}
	if all.A2 == nil || all.A4 == nil {
		return nil, fmt.Errorf("experiments: fig2: W or Y unexpectedly non-primitive")
	}
	res := &Fig2Result{
		All:          all,
		WantPiW:      lmm.PaperPiW,
		WantPiWTilde: lmm.PaperPiWTilde,
		WantOrder:    lmm.PaperOrder,
		PartitionGap: all.A2.Scores.L1Diff(all.A4.Scores),
	}
	for i := range res.WantPiW {
		if d := abs(all.A1.Scores[i] - res.WantPiW[i]); d > res.MaxDeviation {
			res.MaxDeviation = d
		}
		if d := abs(all.A2.Scores[i] - res.WantPiWTilde[i]); d > res.MaxDeviation {
			res.MaxDeviation = d
		}
	}
	res.OrderMatches = equalInts(all.A1.Positions(), res.WantOrder) &&
		equalInts(all.A2.Positions(), res.WantOrder)
	return res, nil
}

// Format renders the experiment in the layout of Figure 2, extended with
// the paper's published values for side-by-side comparison.
func (r *Fig2Result) Format() string {
	var b strings.Builder
	b.WriteString("E1/E2 — Figure 2: ranking of the 12 global system states (α = f = 0.85)\n\n")
	b.WriteString("local PageRank vectors (§2.3.2):\n")
	for i, v := range r.All.Local {
		fmt.Fprintf(&b, "  π%dG = %v\n", i+1, v)
	}
	fmt.Fprintf(&b, "\nphase layer (§2.3.3):\n  πY  = %v   (paper: %v)\n  π̃Y  = %v   (paper: %v)\n\n",
		r.All.PiY, lmm.PaperPiY, r.All.PiYTilde, lmm.PaperPiYTilde)

	b.WriteString("state     πW      paper   rank | π̃W      paper   rank\n")
	pos1 := r.All.A1.Positions()
	pos2 := r.All.A2.Positions()
	for k := 0; k < len(r.WantPiW); k++ {
		st := r.All.Layout.State(k)
		fmt.Fprintf(&b, "%2d %-6s %.4f  %.4f  %3d  | %.4f  %.4f  %3d\n",
			k+1, st, r.All.A1.Scores[k], r.WantPiW[k], pos1[k],
			r.All.A2.Scores[k], r.WantPiWTilde[k], pos2[k])
	}
	fmt.Fprintf(&b, "\nmax deviation from published digits: %.2e (4-decimal rounding bound 5e-5 + solver tol)\n", r.MaxDeviation)
	fmt.Fprintf(&b, "published rank order reproduced: %v\n", r.OrderMatches)
	fmt.Fprintf(&b, "Partition Theorem gap ‖A2−A4‖₁: %.2e (Corollary 1: identical)\n", r.PartitionGap)
	fmt.Fprintf(&b, "decentralized check: π̃(2,3) = π̃Y(2)·π²G(3) = %.4f (paper: 0.2541)\n",
		r.All.A4.Score(lmm.State{Phase: 1, Sub: 2}))
	fmt.Fprintf(&b, "adjusted variant:    π(2,3) = πY(2)·π²G(3)  = %.4f (paper: 0.2456)\n",
		r.All.A3.Score(lmm.State{Phase: 1, Sub: 2}))
	return b.String()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
