package lmmrank_test

import (
	"context"
	"fmt"

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
