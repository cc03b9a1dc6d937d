package experiments

import (
	"fmt"
	"strings"

	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/rankutil"
	"lmmrank/internal/webgen"
)

// AblationResult covers two design-choice ablations: SiteGraph self-loop
// handling and the damping/gatekeeper parameter.
type AblationResult struct {
	// SelfLoopTau is the Kendall τ between layered rankings with and
	// without intra-site self-loops in the SiteGraph; SelfLoopSpam15 and
	// NoSelfLoopSpam15 are the respective contamination@15 values.
	SelfLoopTau                      float64
	SelfLoopSpam15, NoSelfLoopSpam15 float64
	// AlphaTaus maps each α to the Kendall τ of its layered ranking
	// against the α = 0.85 default.
	Alphas    []float64
	AlphaTaus []float64
	// AlphaSpam15 is the contamination@15 per α.
	AlphaSpam15 []float64
}

// RunAblation executes both ablations on one campus web.
func RunAblation(seed int64) (*AblationResult, error) {
	cfg := webgen.Default()
	cfg.Seed = seed
	web := webgen.Generate(cfg)
	flags := web.SpamFlags()

	withLoops, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{Tol: 1e-9})
	if err != nil {
		return nil, fmt.Errorf("experiments: ablation base: %w", err)
	}
	noLoops, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{
		Tol:       1e-9,
		SiteGraph: graph.SiteGraphOptions{DropSelfLoops: true},
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: ablation no-self-loops: %w", err)
	}

	out := &AblationResult{
		SelfLoopTau:      rankutil.KendallTau(withLoops.DocRank, noLoops.DocRank),
		SelfLoopSpam15:   rankutil.ContaminationAtK(withLoops.DocRank, flags, 15),
		NoSelfLoopSpam15: rankutil.ContaminationAtK(noLoops.DocRank, flags, 15),
		Alphas:           []float64{0.5, 0.7, 0.85, 0.95},
	}
	for _, alpha := range out.Alphas {
		r, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{Damping: alpha, Tol: 1e-9})
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation α=%g: %w", alpha, err)
		}
		out.AlphaTaus = append(out.AlphaTaus, rankutil.KendallTau(r.DocRank, withLoops.DocRank))
		out.AlphaSpam15 = append(out.AlphaSpam15, rankutil.ContaminationAtK(r.DocRank, flags, 15))
	}
	return out, nil
}

// Format renders the ablation tables.
func (r *AblationResult) Format() string {
	var b strings.Builder
	b.WriteString("Ablation A — SiteGraph self-loops (intra-site mass in Y)\n\n")
	b.WriteString("variant            τ vs default  spam@15\n")
	fmt.Fprintf(&b, "%-18s %-13.3f %.3f\n", "with self-loops", 1.0, r.SelfLoopSpam15)
	fmt.Fprintf(&b, "%-18s %-13.3f %.3f\n", "inter-site only", r.SelfLoopTau, r.NoSelfLoopSpam15)
	b.WriteString("\nAblation B — gatekeeper/damping parameter α\n\n")
	b.WriteString("α      τ vs 0.85   spam@15\n")
	for i, alpha := range r.Alphas {
		fmt.Fprintf(&b, "%-6.2f %-11.3f %.3f\n", alpha, r.AlphaTaus[i], r.AlphaSpam15[i])
	}
	return b.String()
}
