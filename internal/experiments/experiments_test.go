package experiments

import (
	"strings"
	"testing"

	"lmmrank/internal/graph"
	"lmmrank/internal/webgen"
)

func TestRunFig2ReproducesPaper(t *testing.T) {
	res, err := RunFig2()
	if err != nil {
		t.Fatalf("RunFig2: %v", err)
	}
	if !res.OrderMatches {
		t.Error("published Figure 2 rank order not reproduced")
	}
	// Published digits are 4-decimal roundings: each entry must match to
	// ≤ 5e-5 rounding + small solver tolerance.
	if res.MaxDeviation > 2e-4 {
		t.Errorf("max deviation from published digits = %g", res.MaxDeviation)
	}
	if res.PartitionGap > 1e-8 {
		t.Errorf("partition gap = %g", res.PartitionGap)
	}
	out := res.Format()
	for _, want := range []string{"0.2541", "0.2456", "Figure 2", "π̃Y"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q", want)
		}
	}
}

// campusOpts returns a scaled-down campus configuration that keeps the
// paper's qualitative structure but runs in test time.
func campusOpts(seed int64) CampusOptions {
	cfg := webgen.Config{
		Seed:                seed,
		Sites:               60,
		MeanSitePages:       20,
		AuthorityPages:      6,
		IntraLinksPerPage:   2,
		InterLinkFraction:   0.25,
		DynamicClusterPages: 400,
		DocClusterPages:     400,
	}
	return CampusOptions{Web: cfg, Tol: 1e-9}
}

func TestRunCampusReproducesFigure3And4Shape(t *testing.T) {
	res, err := RunCampus(campusOpts(2005))
	if err != nil {
		t.Fatalf("RunCampus: %v", err)
	}
	// Figure 3's shape: flat PageRank's top-15 is substantially
	// contaminated by agglomerate pages.
	if res.ContaminationPR[15] < 0.25 {
		t.Errorf("PageRank contamination@15 = %.2f, want ≥ 0.25 (Figure 3 shape)",
			res.ContaminationPR[15])
	}
	// Figure 4's shape: the Layered Method's top-15 is clean.
	if res.ContaminationLMM[15] > 0.05 {
		t.Errorf("LMM contamination@15 = %.2f, want ≈ 0 (Figure 4 shape)",
			res.ContaminationLMM[15])
	}
	// Both top the main home page, as in both figures.
	if res.TopPageRank[0].Index != int(res.Web.MainHome) {
		t.Errorf("PageRank top-1 = %s, want main home",
			res.Web.Graph.URL(graph.DocID(res.TopPageRank[0].Index)))
	}
	if res.TopLayered[0].Index != int(res.Web.MainHome) {
		t.Errorf("LMM top-1 = %s, want main home",
			res.Web.Graph.URL(graph.DocID(res.TopLayered[0].Index)))
	}
	// "Qualitatively comparable": the two rankings correlate positively
	// overall even though their top lists differ.
	if res.KendallTau < 0.2 {
		t.Errorf("Kendall τ = %.3f, want clearly positive", res.KendallTau)
	}
	for _, fragment := range []string{"Figure 3", "Webdriver"} {
		if !strings.Contains(res.FormatFig3(), fragment) {
			t.Errorf("FormatFig3 missing %q", fragment)
		}
	}
	if !strings.Contains(res.FormatFig4(), "Figure 4") {
		t.Error("FormatFig4 missing title")
	}
	if !strings.Contains(res.FormatSpam(), "PageRank") {
		t.Error("FormatSpam missing header")
	}
}

func TestRunSpamSweepMonotoneForPageRank(t *testing.T) {
	sizes := []int{0, 150, 400}
	res, err := RunSpamSweep(sizes, 7)
	if err != nil {
		t.Fatalf("RunSpamSweep: %v", err)
	}
	if len(res.PageRank) != len(sizes) {
		t.Fatalf("points = %d", len(res.PageRank))
	}
	if res.PageRank[0] != 0 {
		t.Errorf("no clusters should mean zero contamination, got %g", res.PageRank[0])
	}
	if res.PageRank[len(sizes)-1] <= res.PageRank[0] {
		t.Errorf("PageRank contamination did not grow with cluster size: %v", res.PageRank)
	}
	for i, c := range res.Layered {
		if c > 0.10 {
			t.Errorf("LMM contamination@15 at size %d = %g, want ≈ 0", sizes[i], c)
		}
	}
	if !strings.Contains(res.Format(), "cluster-size") {
		t.Error("Format missing header")
	}
}

func TestRunComplexityLayeredWins(t *testing.T) {
	sizes := []ModelSize{
		{Phases: 5, SubStates: 10},
		{Phases: 15, SubStates: 30},
	}
	res, err := RunComplexity(sizes, 3)
	if err != nil {
		t.Fatalf("RunComplexity: %v", err)
	}
	for _, p := range res.Points {
		if p.Gap > 1e-7 {
			t.Errorf("size %+v: rankings deviate by %g", p.Size, p.Gap)
		}
	}
	// The paper's claim is asymptotic: the layered method must win
	// clearly on the larger model.
	last := res.Points[len(res.Points)-1]
	if last.Speedup < 1.5 {
		t.Errorf("layered speedup on %d states = %.2fx, want ≥ 1.5x", last.TotalStates, last.Speedup)
	}
	if !strings.Contains(res.Format(), "speedup") {
		t.Error("Format missing speedup column")
	}
}

func TestRunDistributedMatchesReference(t *testing.T) {
	cfg := webgen.Small()
	cfg.Seed = 5
	res, err := RunDistributed(DistributedOptions{
		Web:          cfg,
		WorkerCounts: []int{1, 3},
	})
	if err != nil {
		t.Fatalf("RunDistributed: %v", err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Gap > 1e-7 {
			t.Errorf("%d workers: gap %g", p.Workers, p.Gap)
		}
		if p.Messages == 0 {
			t.Errorf("%d workers: no messages recorded", p.Workers)
		}
	}
	if !strings.Contains(res.Format(), "workers") {
		t.Error("Format missing header")
	}
}

func TestRunPersonalizationLiftsFocus(t *testing.T) {
	res, err := RunPersonalization(11)
	if err != nil {
		t.Fatalf("RunPersonalization: %v", err)
	}
	if res.SiteRank >= res.BaseRank {
		t.Errorf("site bias: rank %d not better than base %d", res.SiteRank, res.BaseRank)
	}
	if res.DocRank >= res.BaseRank {
		t.Errorf("doc bias: rank %d not better than base %d", res.DocRank, res.BaseRank)
	}
	if res.BothRank > res.SiteRank || res.BothRank > res.DocRank {
		t.Errorf("both-layer bias (%d) should dominate single-layer (%d, %d)",
			res.BothRank, res.SiteRank, res.DocRank)
	}
	if !strings.Contains(res.Format(), "global rank") {
		t.Error("Format missing table header")
	}
}

func TestRunAblation(t *testing.T) {
	res, err := RunAblation(13)
	if err != nil {
		t.Fatalf("RunAblation: %v", err)
	}
	// Self-loop handling changes the ranking but not the spam story.
	if res.SelfLoopTau >= 1 {
		t.Errorf("self-loop ablation should change the ranking, τ = %g", res.SelfLoopTau)
	}
	if res.NoSelfLoopSpam15 > 0.1 || res.SelfLoopSpam15 > 0.1 {
		t.Errorf("LMM stays spam-resistant in both variants: %g / %g",
			res.SelfLoopSpam15, res.NoSelfLoopSpam15)
	}
	// α sweep: τ = 1 against itself at 0.85.
	foundDefault := false
	for i, a := range res.Alphas {
		if a == 0.85 {
			foundDefault = true
			if res.AlphaTaus[i] < 0.999 {
				t.Errorf("τ at α=0.85 against itself = %g", res.AlphaTaus[i])
			}
		}
	}
	if !foundDefault {
		t.Error("α sweep missing the 0.85 default")
	}
	if !strings.Contains(res.Format(), "Ablation") {
		t.Error("Format missing title")
	}
}

func TestRunFusion(t *testing.T) {
	res, err := RunFusion(17)
	if err != nil {
		t.Fatalf("RunFusion: %v", err)
	}
	if res.Queries == 0 || len(res.PrecisionAt5) != len(res.Lambdas) {
		t.Fatalf("result shape: %+v", res)
	}
	// Precision stays high across the sweep (all matches are topical by
	// construction), and the navigational success rate must not decrease
	// when link evidence is added.
	for i, l := range res.Lambdas {
		if res.PrecisionAt5[i] < 0.9 {
			t.Errorf("λ=%g: P@5 = %g", l, res.PrecisionAt5[i])
		}
	}
	pureText := res.HomeFirst[0] // λ = 1 first in the sweep
	for i, l := range res.Lambdas[1:] {
		if res.HomeFirst[i+1] < pureText {
			t.Errorf("λ=%g: home-first %g dropped below pure text %g",
				l, res.HomeFirst[i+1], pureText)
		}
	}
	if !strings.Contains(res.Format(), "P@5") {
		t.Error("Format missing header")
	}
}

// TestFullScaleCampus runs E3/E4 at the default paper scale (218 ordinary
// sites, ~17k documents) rather than the reduced test configuration, so
// the paper-scale numbers stay pinned by CI. Skipped in -short mode.
func TestFullScaleCampus(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale campus run skipped in -short mode")
	}
	res, err := RunCampus(CampusOptions{})
	if err != nil {
		t.Fatalf("RunCampus: %v", err)
	}
	if got := res.Web.Graph.NumSites(); got != 220 {
		t.Errorf("sites = %d, want 220 (218 + 2 agglomerate hosts)", got)
	}
	if res.ContaminationPR[15] < 0.4 {
		t.Errorf("PageRank contamination@15 = %.2f, want ≥ 0.4 at full scale",
			res.ContaminationPR[15])
	}
	if res.ContaminationLMM[100] != 0 {
		t.Errorf("LMM contamination@100 = %.2f, want 0", res.ContaminationLMM[100])
	}
	// The Figure 4 signature: main-site service pages right behind the
	// home page.
	var authorityInTop int
	for _, e := range res.TopLayered[1:12] {
		if res.Web.Class[e.Index] == webgen.ClassAuthority {
			authorityInTop++
		}
	}
	if authorityInTop < 8 {
		t.Errorf("authority pages in LMM top 2..12 = %d, want ≥ 8", authorityInTop)
	}
}

func TestRunChurn(t *testing.T) {
	res, err := RunChurn(29, 10)
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	if res.Events != 10 {
		t.Errorf("Events = %d", res.Events)
	}
	// Correctness: chained incremental results must track the full
	// recompute to solver tolerance.
	if res.MaxGap > 1e-7 {
		t.Errorf("max gap = %g", res.MaxGap)
	}
	// Work: incremental does one local solve per event instead of one per
	// site, and should be clearly faster in total.
	if res.LocalSolvesIncremental >= res.LocalSolvesFull {
		t.Errorf("local solves: %d incremental vs %d full",
			res.LocalSolvesIncremental, res.LocalSolvesFull)
	}
	if res.Speedup < 1.5 {
		t.Errorf("speedup = %.2fx, want ≥ 1.5x", res.Speedup)
	}
	// The serving path (incremental Ranker.RebuildOn + warm-seeded query)
	// must track the full recompute too, and beat it on wall time.
	if res.EngineMaxGap > 1e-7 {
		t.Errorf("serving max gap = %g", res.EngineMaxGap)
	}
	if res.EngineSpeedup < 1.5 {
		t.Errorf("serving speedup = %.2fx, want ≥ 1.5x", res.EngineSpeedup)
	}
	if !strings.Contains(res.Format(), "speedup") {
		t.Error("Format missing speedup")
	}
}
