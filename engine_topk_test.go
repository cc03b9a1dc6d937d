package lmmrank

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// topkQueries are the index-eligible shapes: uniform and
// site-personalized two-layer TopK queries at default parameters.
func topkQueries(numSites int) []Query {
	pers := make(Vector, numSites)
	var mass float64
	for i := range pers {
		pers[i] = float64(i%5) + 1
		mass += pers[i]
	}
	for i := range pers {
		pers[i] /= mass
	}
	return []Query{
		{TopK: 25},
		{TopK: 25, SitePersonalization: pers},
	}
}

// TestTopKIndexBitIdentical is the acceptance pin of the maintained
// top-k index: for eligible queries the Top table must be bit-identical
// — scores, documents and tie order — to fully sorting the same served
// DocRank, before and after an Update, and the served DocRank must
// agree with an index-less engine's to < 1e-9.
func TestTopKIndexBitIdentical(t *testing.T) {
	web := churnTestWeb()
	ctx := context.Background()
	eng, err := NewLocalEngine(web.Graph, EngineOptions{TopKIndex: true})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	plain, err := NewLocalEngine(churnTestWeb().Graph, EngineOptions{})
	if err != nil {
		t.Fatalf("plain NewLocalEngine: %v", err)
	}

	check := func(t *testing.T, round string) {
		t.Helper()
		for qi, q := range topkQueries(eng.DocGraph().NumSites()) {
			before := eng.ServingStats().TopKIndexServes
			res, err := eng.Rank(ctx, q)
			if err != nil {
				t.Fatalf("%s query %d: %v", round, qi, err)
			}
			if got := eng.ServingStats().TopKIndexServes; got != before+1 {
				t.Fatalf("%s query %d bypassed the index (TopKIndexServes %d → %d)", round, qi, before, got)
			}
			want := TopDocs(eng.DocGraph(), res.DocRank, q.TopK)
			if !reflect.DeepEqual(res.Top, want) {
				t.Errorf("%s query %d: index Top differs from the full sort\n got %v\nwant %v", round, qi, res.Top, want)
			}
			exact, err := plain.Rank(ctx, q)
			if err != nil {
				t.Fatalf("%s plain query %d: %v", round, qi, err)
			}
			if d := res.DocRank.L1Diff(exact.DocRank); d >= 1e-9 {
				t.Errorf("%s query %d: ‖index − exact‖₁ = %g, want < 1e-9", round, qi, d)
			}
		}
	}
	check(t, "cold")

	edit := func(e *LocalEngine, sites ...SiteID) {
		t.Helper()
		err := e.Update(ctx, GraphDelta{
			ChangedSites: sites,
			Apply: func(dg *DocGraph) error {
				for _, s := range sites {
					editSite(t, dg, s)
				}
				return nil
			},
		})
		if err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	edit(eng, 3, 7)
	edit(plain, 3, 7)
	check(t, "post-update")
	edit(eng, 3)
	edit(plain, 3)
	check(t, "post-second-update")
}

// TestTopKIndexPatchShares pins the incremental maintenance: after an
// Update, clean sites' posting lists are shared by pointer with the
// previous snapshot — only the changed sites re-sorted.
func TestTopKIndexPatchShares(t *testing.T) {
	web := churnTestWeb()
	ctx := context.Background()
	eng, err := NewLocalEngine(web.Graph, EngineOptions{TopKIndex: true})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	old := eng.snap.Load().state.topk
	const changed = SiteID(5)
	err = eng.Update(ctx, GraphDelta{
		ChangedSites: []SiteID{changed},
		Apply: func(dg *DocGraph) error {
			editSite(t, dg, changed)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	next := eng.snap.Load().state.topk
	for s := range next.sites {
		shared := next.sites[s] == old.sites[s]
		if SiteID(s) == changed && shared {
			t.Errorf("changed site %d shares its posting list with the old snapshot", s)
		}
		if SiteID(s) != changed && !shared {
			t.Errorf("clean site %d was re-sorted instead of shared", s)
		}
	}
}

// TestTopKIndexTies drives the merge through maximal tie runs: linkless
// sites have uniform local ranks (whole-site tie runs), and two
// structurally identical sites tie cross-site too. The index must
// reproduce the full sort's DocID tie order exactly, including when k
// drains every document.
func TestTopKIndexTies(t *testing.T) {
	b := NewGraphBuilder()
	for s := 0; s < 3; s++ {
		for d := 0; d < 4; d++ {
			b.AddDocInSite(fmt.Sprintf("http://s%d.ex/p%d", s, d), fmt.Sprintf("s%d.ex", s))
		}
	}
	// Site 0 gets internal structure; sites 1 and 2 stay linkless twins.
	b.AddLink("http://s0.ex/p0", "http://s0.ex/p1")
	b.AddLink("http://s0.ex/p1", "http://s0.ex/p0")
	dg := b.Build()

	ctx := context.Background()
	eng, err := NewLocalEngine(dg, EngineOptions{TopKIndex: true})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	for _, k := range []int{1, 3, 7, 12, 50} {
		res, err := eng.Rank(ctx, Query{TopK: k})
		if err != nil {
			t.Fatalf("Rank k=%d: %v", k, err)
		}
		want := TopDocs(dg, res.DocRank, k)
		if !reflect.DeepEqual(res.Top, want) {
			t.Errorf("k=%d: index Top differs from the full sort\n got %v\nwant %v", k, res.Top, want)
		}
	}
}

// TestTopKIndexIneligibleFallsThrough: queries outside the index's
// contract — non-default solver parameters, document-layer
// personalization, three-layer, LocalRanks requests, no TopK — take the
// full solve path and still answer correctly.
func TestTopKIndexIneligibleFallsThrough(t *testing.T) {
	web := churnTestWeb()
	ctx := context.Background()
	eng, err := NewLocalEngine(web.Graph, EngineOptions{TopKIndex: true})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	docPers := map[SiteID]Vector{0: uniformLike(eng.DocGraph().Sites[0].Docs)}
	ineligible := []Query{
		{TopK: 5, Damping: 0.9},
		{TopK: 5, Tol: 1e-6},
		{TopK: 5, MaxIter: 50},
		{TopK: 5, DocPersonalization: docPers},
		{TopK: 5, ThreeLayer: true},
		{TopK: 5, WantLocalRanks: true},
		{},
	}
	for qi, q := range ineligible {
		before := eng.ServingStats().TopKIndexServes
		res, err := eng.Rank(ctx, q)
		if err != nil {
			t.Fatalf("ineligible query %d: %v", qi, err)
		}
		if got := eng.ServingStats().TopKIndexServes; got != before {
			t.Errorf("ineligible query %d served from the index", qi)
		}
		if !res.DocRank.IsDistribution(1e-8) {
			t.Errorf("ineligible query %d: DocRank is not a distribution", qi)
		}
		if q.TopK > 0 && len(res.Top) != q.TopK {
			t.Errorf("ineligible query %d: len(Top) = %d, want %d", qi, len(res.Top), q.TopK)
		}
	}
}

// uniformLike builds a uniform teleport vector the size of a roster.
func uniformLike(roster []DocID) Vector {
	v := make(Vector, len(roster))
	for i := range v {
		v[i] = 1 / float64(len(roster))
	}
	return v
}
