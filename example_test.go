package lmmrank_test

import (
	"context"
	"fmt"
	"sync"
	"time"

	"lmmrank"
)

// ExampleLayeredMethod reproduces the headline numbers of the paper's
// worked example: the Layered Method's score for global state (2,3).
func ExampleLayeredMethod() {
	model := lmmrank.PaperExample()
	ranking, err := lmmrank.LayeredMethod(model, lmmrank.Config{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("π̃(2,3) = %.4f\n", ranking.Score(lmmrank.State{Phase: 1, Sub: 2}))
	top := ranking.Order()[0]
	fmt.Printf("top state = %v\n", top)
	// Output:
	// π̃(2,3) = 0.2541
	// top state = (2,3)
}

// ExamplePartitionGap verifies Corollary 1 on the paper's model: the
// decentralized Layered Method equals the centralized power method on W.
func ExamplePartitionGap() {
	gap, err := lmmrank.PartitionGap(lmmrank.PaperExample(), lmmrank.Config{Tol: 1e-12})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("gap below 1e-8: %v\n", gap < 1e-8)
	// Output:
	// gap below 1e-8: true
}

// ExampleLayeredDocRank ranks a two-site web and prints the SiteRank.
func ExampleLayeredDocRank() {
	b := lmmrank.NewGraphBuilder()
	b.AddLink("http://news.example/", "http://blog.example/")
	b.AddLink("http://blog.example/", "http://news.example/")
	b.AddLink("http://blog.example/post", "http://news.example/")
	b.AddLink("http://blog.example/", "http://blog.example/post")
	dg := b.Build()

	res, err := lmmrank.LayeredDocRank(dg, lmmrank.WebConfig{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for s, score := range res.SiteRank {
		fmt.Printf("%s %.2f\n", dg.Sites[s].Name, score)
	}
	// Output:
	// news.example 0.41
	// blog.example 0.59
}

// ExampleGraphBuilder shows site assignment by URL host.
func ExampleGraphBuilder() {
	b := lmmrank.NewGraphBuilder()
	b.AddLink("http://a.example/x", "http://b.example/y")
	dg := b.Build()
	fmt.Println("sites:", dg.NumSites(), "docs:", dg.NumDocs())
	fmt.Println("site of doc 0:", dg.Sites[dg.SiteOf(0)].Name)
	// Output:
	// sites: 2 docs: 2
	// site of doc 0: a.example
}

// servingWeb is the synthetic campus web the serving examples rank.
func servingWeb() *lmmrank.DocGraph {
	return lmmrank.GenerateCampusWeb(lmmrank.CampusWebConfig{
		Seed: 7, Sites: 40, MeanSitePages: 20,
		DynamicClusterPages: 200, DocClusterPages: 200,
	}).Graph
}

// ExampleLocalEngine serves the Engine API from one process: one engine,
// built once, answers site-personalized top-k queries from several
// goroutines at once — each result is the caller's own — then the
// three-layer model, and a context deadline cuts a query short.
func ExampleLocalEngine() {
	dg := servingWeb()
	eng, err := lmmrank.NewLocalEngine(dg, lmmrank.EngineOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ctx := context.Background()
	answers := make([]*lmmrank.Result, 3)
	errs := make([]error, len(answers))
	var wg sync.WaitGroup
	for u := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pers := make(lmmrank.Vector, dg.NumSites())
			for i := range pers {
				pers[i] = 1
			}
			pers[u] = 20 // each user favors a different site
			pers.Normalize()
			answers[u], errs[u] = eng.Rank(ctx, lmmrank.Query{SitePersonalization: pers, TopK: 3})
		}()
	}
	wg.Wait()
	for u, res := range answers {
		if errs[u] != nil {
			fmt.Println("error:", errs[u])
			return
		}
		fmt.Printf("user %d top hit: %s (%.5f)\n", u, res.Top[0].URL, res.Top[0].Score)
	}

	res3, err := eng.Rank(ctx, lmmrank.Query{ThreeLayer: true, TopK: 1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("three-layer: %d domain, top hit %s\n", len(res3.Domains), res3.Top[0].URL)

	tight, cancel := context.WithTimeout(ctx, time.Nanosecond)
	defer cancel()
	<-tight.Done()
	_, err = eng.Rank(tight, lmmrank.Query{})
	fmt.Println("tight deadline:", err)
	// Output:
	// user 0 top hit: http://www.campus.example/ (0.10251)
	// user 1 top hit: http://dept001.campus.example/ (0.07820)
	// user 2 top hit: http://dept002.campus.example/ (0.06373)
	// three-layer: 1 domain, top hit http://www.campus.example/
	// tight deadline: context deadline exceeded
}

// ExampleDistEngine serves the same Query type from a worker fleet. The
// first Rank ships the site shards and has the workers solve every
// site's local DocRank; the snapshot keeps those solutions, so a later
// default-parameter Rank is composed from them and sends nothing — and
// it ranks exactly as a LocalEngine does.
func ExampleDistEngine() {
	dg := servingWeb()
	cl, err := lmmrank.StartCluster(3)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer cl.Close()
	dist, err := lmmrank.NewDistEngine(cl, dg, lmmrank.DistConfig{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	local, err := lmmrank.NewLocalEngine(dg, lmmrank.EngineOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ctx := context.Background()
	var res [2]*lmmrank.Result
	for i := range res {
		if res[i], err = dist.Rank(ctx, lmmrank.Query{TopK: 3}); err != nil {
			fmt.Println("error:", err)
			return
		}
	}
	ref, err := local.Rank(ctx, lmmrank.Query{TopK: 3})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("first Rank sent messages:", res[0].Dist.Messages > 0)
	fmt.Println("warm Rank sent messages:", res[1].Dist.Messages)
	fmt.Println("top hit:", res[1].Top[0].URL)
	fmt.Println("the LocalEngine's top hit too:", res[1].Top[0].Doc == ref.Top[0].Doc)
	// Output:
	// first Rank sent messages: true
	// warm Rank sent messages: 0
	// top hit: http://www.campus.example/
	// the LocalEngine's top hit too: true
}

// ExampleLocalEngine_Update serves a synthetic campus web, changes one
// site through Engine.Update and ranks again. Update applies the edit to
// a copy-on-write clone, rebuilds only the listed site's structure and
// publishes the new graph atomically; queries in flight finish on the
// graph they started on, and the next Rank sees the edit.
func ExampleLocalEngine_Update() {
	ctx := context.Background()
	web := lmmrank.GenerateCampusWeb(lmmrank.CampusWebConfig{
		Seed: 2003, Sites: 20, MeanSitePages: 15,
		DynamicClusterPages: 100, DocClusterPages: 100,
	})
	eng, err := lmmrank.NewLocalEngine(web.Graph, lmmrank.EngineOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	before, err := eng.Rank(ctx, lmmrank.Query{TopK: 3})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, e := range before.Top {
		fmt.Printf("%.4f %s\n", e.Score, e.URL)
	}

	// Every page of site 5 starts linking to the site's last page.
	const site lmmrank.SiteID = 5
	docs := web.Graph.Sites[site].Docs
	target := docs[len(docs)-1]
	err = eng.Update(ctx, lmmrank.GraphDelta{
		ChangedSites: []lmmrank.SiteID{site},
		Apply: func(dg *lmmrank.DocGraph) error {
			for _, d := range docs[:len(docs)-1] {
				dg.G.AddLink(int(d), int(target))
			}
			return nil
		},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	after, err := eng.Rank(ctx, lmmrank.Query{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("edited:", eng.DocGraph().URL(target))
	fmt.Printf("its score: %.6f -> %.6f\n", before.DocRank[target], after.DocRank[target])
	// Output:
	// 0.0514 http://www.campus.example/
	// 0.0143 http://dept017.campus.example/
	// 0.0136 http://dept011.campus.example/
	// edited: http://dept005.campus.example/page25.html
	// its score: 0.001036 -> 0.005125
}
