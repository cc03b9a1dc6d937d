package lmmrank

import (
	"bytes"
	"context"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"lmmrank/internal/dist/coordinator"
	"lmmrank/internal/lmm"
)

func TestFacadePaperExample(t *testing.T) {
	model := PaperExample()
	r, err := LayeredMethod(model, Config{})
	if err != nil {
		t.Fatalf("LayeredMethod: %v", err)
	}
	// Paper §2.3.3: π̃(2,3) = 0.2541 is the top state.
	got := r.Score(State{Phase: 1, Sub: 2})
	if got < 0.25 || got > 0.26 {
		t.Errorf("π̃(2,3) = %.4f, want ≈ 0.2541", got)
	}
	gap, err := PartitionGap(model, Config{})
	if err != nil {
		t.Fatalf("PartitionGap: %v", err)
	}
	if gap > 1e-8 {
		t.Errorf("gap = %g", gap)
	}
}

func TestFacadeAllApproaches(t *testing.T) {
	model := PaperExample()
	for name, fn := range map[string]func(*Model, Config) (*Ranking, error){
		"Approach1": Approach1,
		"Approach2": Approach2,
		"Approach3": Approach3,
	} {
		r, err := fn(model, Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.Scores.IsDistribution(1e-8) {
			t.Errorf("%s: not a distribution", name)
		}
	}
	all, err := ComputeAll(model, Config{})
	if err != nil {
		t.Fatalf("ComputeAll: %v", err)
	}
	if all.A4 == nil {
		t.Error("ComputeAll missing Layered Method")
	}
}

func TestFacadeWebPipeline(t *testing.T) {
	b := NewGraphBuilder()
	b.AddLink("http://a.ex/", "http://b.ex/")
	b.AddLink("http://b.ex/", "http://a.ex/")
	b.AddLink("http://a.ex/", "http://a.ex/page")
	b.AddLink("http://a.ex/page", "http://a.ex/")
	dg := b.Build()

	layered, err := LayeredDocRank(dg, WebConfig{})
	if err != nil {
		t.Fatalf("LayeredDocRank: %v", err)
	}
	flat, err := PageRank(dg, WebConfig{})
	if err != nil {
		t.Fatalf("PageRank: %v", err)
	}
	if !layered.DocRank.IsDistribution(1e-8) || !flat.IsDistribution(1e-8) {
		t.Error("rankings are not distributions")
	}
	top := TopDocs(dg, layered.DocRank, 2)
	if len(top) != 2 || top[0].URL == "" {
		t.Errorf("TopDocs = %+v", top)
	}
	if tau := KendallTau(layered.DocRank, flat); tau < -1 || tau > 1 {
		t.Errorf("τ = %g", tau)
	}
	sg := DeriveSiteGraph(dg, SiteGraphOptions{})
	if sg.NumSites() != 2 {
		t.Errorf("sites = %d", sg.NumSites())
	}
}

func TestFacadeGraphIO(t *testing.T) {
	web := GenerateCampusWeb(CampusWebConfig{
		Seed: 3, Sites: 5, MeanSitePages: 5,
		DynamicClusterPages: 10, DocClusterPages: 10,
	})
	var text, bin bytes.Buffer
	if err := WriteGraph(&text, web.Graph); err != nil {
		t.Fatalf("WriteGraph: %v", err)
	}
	if err := WriteGraphBinary(&bin, web.Graph); err != nil {
		t.Fatalf("WriteGraphBinary: %v", err)
	}
	fromText, err := ReadGraph(strings.NewReader(text.String()))
	if err != nil {
		t.Fatalf("ReadGraph: %v", err)
	}
	fromBin, err := ReadGraphBinary(&bin)
	if err != nil {
		t.Fatalf("ReadGraphBinary: %v", err)
	}
	if fromText.NumDocs() != web.Graph.NumDocs() || fromBin.NumDocs() != web.Graph.NumDocs() {
		t.Error("round-trip changed document count")
	}
}

// coordRank is one fleet run over dg from nothing known, on a Ranker
// built for it as an engine builds one.
func coordRank(cl *Cluster, dg *DocGraph, cfg coordinator.Config) (*coordinator.Result, error) {
	rk, err := lmm.NewRanker(dg, lmm.RankerOptions{})
	if err != nil {
		return nil, err
	}
	return cl.Coord.RankPreparedCtx(context.Background(), rk, cfg, coordinator.Warm{})
}

func TestFacadeCluster(t *testing.T) {
	web := GenerateCampusWeb(CampusWebConfig{
		Seed: 4, Sites: 6, MeanSitePages: 6,
		DynamicClusterPages: 15, DocClusterPages: 15,
	})
	cl, err := StartCluster(2)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()
	res, err := coordRank(cl, web.Graph, coordinator.Config{})
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	local, err := LayeredDocRank(web.Graph, WebConfig{})
	if err != nil {
		t.Fatalf("LayeredDocRank: %v", err)
	}
	if d := lmm.ComposeDocRank(web.Graph, local.SiteRank, res.LocalRanks).L1Diff(local.DocRank); d > 1e-8 {
		t.Errorf("distributed deviates from local: %g", d)
	}
}

// TestRootImportsOnlyTheEngine pins the public package to the paper's
// model API plus Engine: its non-test files may import only the internal
// packages that surface serves. A crawler, a search index or any other
// tool the method does not need belongs under internal/ or cmd/, not
// behind a re-export here.
func TestRootImportsOnlyTheEngine(t *testing.T) {
	allowed := map[string]bool{
		"lmmrank/internal/dist/cluster":     true,
		"lmmrank/internal/dist/coordinator": true,
		"lmmrank/internal/graph":            true,
		"lmmrank/internal/lmm":              true,
		"lmmrank/internal/matrix":           true,
		"lmmrank/internal/pagerank":         true,
		"lmmrank/internal/rankutil":         true,
		"lmmrank/internal/webgen":           true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(path, "lmmrank/internal/") && !allowed[path] {
				t.Errorf("%s imports %s, outside the model API and Engine", name, path)
			}
		}
	}
}
