package experiments

import (
	"fmt"
	"strings"

	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/matrix"
	"lmmrank/internal/rankutil"
	"lmmrank/internal/webgen"
)

// CampusOptions parameterizes E3/E4/E5 on the synthetic campus web.
type CampusOptions struct {
	// Web configures the generator; zero value = webgen.Default() with
	// seed 2005.
	Web webgen.Config
	// TopK is the table length (0 = 15, the paper's).
	TopK int
	// Tol is the power-method tolerance (0 = 1e-10).
	Tol float64
}

func (o CampusOptions) withDefaults() CampusOptions {
	if o.Web.Sites == 0 {
		o.Web = webgen.Default()
		o.Web.Seed = 2005
	}
	if o.TopK == 0 {
		o.TopK = 15
	}
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	return o
}

// CampusResult bundles the Figure 3 / Figure 4 comparison plus the
// quantitative spam metrics of E5.
type CampusResult struct {
	Web *webgen.Web
	// PageRank is the flat baseline (Figure 3), Layered the LMM method
	// (Figure 4).
	PageRank matrix.Vector
	Layered  *lmm.WebResult
	// TopPageRank and TopLayered are the top-K tables.
	TopPageRank, TopLayered []rankutil.Entry
	// Contamination maps k → fraction of agglomerate pages in the top-k,
	// for both methods.
	ContaminationPR, ContaminationLMM map[int]float64
	// KendallTau and Overlap quantify overall agreement of the two
	// rankings.
	KendallTau float64
	Overlap100 float64
	TopK       int
}

// RunCampus executes E3 (Figure 3), E4 (Figure 4) and the E5 metrics on
// one generated campus web.
func RunCampus(opts CampusOptions) (*CampusResult, error) {
	opts = opts.withDefaults()
	web := webgen.Generate(opts.Web)

	pr, err := lmm.GlobalPageRank(web.Graph, lmm.WebConfig{Tol: opts.Tol})
	if err != nil {
		return nil, fmt.Errorf("experiments: campus pagerank: %w", err)
	}
	layered, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{Tol: opts.Tol})
	if err != nil {
		return nil, fmt.Errorf("experiments: campus layered: %w", err)
	}

	flags := web.SpamFlags()
	res := &CampusResult{
		Web:              web,
		PageRank:         pr.Scores,
		Layered:          layered,
		TopPageRank:      rankutil.TopK(pr.Scores, opts.TopK),
		TopLayered:       rankutil.TopK(layered.DocRank, opts.TopK),
		ContaminationPR:  make(map[int]float64),
		ContaminationLMM: make(map[int]float64),
		KendallTau:       rankutil.KendallTau(pr.Scores, layered.DocRank),
		Overlap100:       rankutil.OverlapAtK(pr.Scores, layered.DocRank, 100),
		TopK:             opts.TopK,
	}
	for _, k := range []int{10, 15, 25, 50, 100} {
		res.ContaminationPR[k] = rankutil.ContaminationAtK(pr.Scores, flags, k)
		res.ContaminationLMM[k] = rankutil.ContaminationAtK(layered.DocRank, flags, k)
	}
	return res, nil
}

// FormatFig3 renders the PageRank table in the Figure 3 layout.
func (r *CampusResult) FormatFig3() string {
	return r.formatTable(
		"E3 — Figure 3: top documents by flat PageRank (agglomerates dominate)",
		r.TopPageRank)
}

// FormatFig4 renders the LMM table in the Figure 4 layout.
func (r *CampusResult) FormatFig4() string {
	return r.formatTable(
		"E4 — Figure 4: top documents by the LMM-based Layered Method",
		r.TopLayered)
}

func (r *CampusResult) formatTable(title string, top []rankutil.Entry) string {
	var b strings.Builder
	b.WriteString(title + "\n\n")
	fmt.Fprintf(&b, "web: %d sites, %d documents, %d links\n\n",
		r.Web.Graph.NumSites(), r.Web.Graph.NumDocs(), r.Web.Graph.G.NumEdges())
	fmt.Fprintf(&b, "%-4s %-10s %-22s %s\n", "#", "score", "class", "URL")
	for i, e := range top {
		fmt.Fprintf(&b, "%-4d %-10.6f %-22s %s\n",
			i+1, e.Score, r.Web.Class[e.Index], r.Web.Graph.URL(graph.DocID(e.Index)))
	}
	return b.String()
}

// FormatSpam renders the E5 contamination table.
func (r *CampusResult) FormatSpam() string {
	var b strings.Builder
	b.WriteString("E5 — link-spam resistance: fraction of agglomerate pages in the top-k\n\n")
	b.WriteString("k     PageRank   LMM\n")
	for _, k := range []int{10, 15, 25, 50, 100} {
		fmt.Fprintf(&b, "%-5d %-10.3f %-10.3f\n", k, r.ContaminationPR[k], r.ContaminationLMM[k])
	}
	fmt.Fprintf(&b, "\noverall agreement: Kendall τ = %.3f, overlap@100 = %.3f\n",
		r.KendallTau, r.Overlap100)
	b.WriteString("(paper §3.3: LMM \"defeats link spamming to a satisfiable degree\" while\n remaining qualitatively comparable to PageRank)\n")
	return b.String()
}

// SpamSweepResult is E5's ablation: contamination as agglomerate size
// grows.
type SpamSweepResult struct {
	Sizes             []int
	PageRank, Layered []float64 // contamination@15 per size
	TopK              int
}

// RunSpamSweep varies the agglomerate sizes and measures contamination of
// the top-15 under both methods.
func RunSpamSweep(sizes []int, seed int64) (*SpamSweepResult, error) {
	if len(sizes) == 0 {
		sizes = []int{0, 250, 500, 1000, 2500, 5000}
	}
	out := &SpamSweepResult{Sizes: sizes, TopK: 15}
	for _, size := range sizes {
		cfg := webgen.Default()
		cfg.Seed = seed
		cfg.DynamicClusterPages = size
		cfg.DocClusterPages = size
		web := webgen.Generate(cfg)
		pr, err := lmm.GlobalPageRank(web.Graph, lmm.WebConfig{Tol: 1e-9})
		if err != nil {
			return nil, fmt.Errorf("experiments: sweep size %d: %w", size, err)
		}
		layered, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{Tol: 1e-9})
		if err != nil {
			return nil, fmt.Errorf("experiments: sweep size %d: %w", size, err)
		}
		flags := web.SpamFlags()
		out.PageRank = append(out.PageRank, rankutil.ContaminationAtK(pr.Scores, flags, out.TopK))
		out.Layered = append(out.Layered, rankutil.ContaminationAtK(layered.DocRank, flags, out.TopK))
	}
	return out, nil
}

// Format renders the sweep table.
func (r *SpamSweepResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E5 ablation — contamination@%d vs agglomerate size (pages per cluster)\n\n", r.TopK)
	b.WriteString("cluster-size  PageRank   LMM\n")
	for i, size := range r.Sizes {
		fmt.Fprintf(&b, "%-13d %-10.3f %-10.3f\n", size, r.PageRank[i], r.Layered[i])
	}
	return b.String()
}
