// Command crawlandrank reproduces the paper's full data pipeline (§3.3): crawl a
// campus web from its university home page — including the dynamic pages
// other studies excluded — then rank the captured snapshot. It also shows
// the churn path: a site changes after the crawl and the served ranking
// is refreshed through Engine.Update (only the changed site's structure
// rebuilds, queries warm-start from the previous solution).
//
//	go run ./examples/crawlandrank
package main

import (
	"context"
	"fmt"
	"log"

	"lmmrank"
)

func main() {
	// The "live web": a synthetic campus serving as the crawl target.
	origin := lmmrank.GenerateCampusWeb(lmmrank.CampusWebConfig{
		Seed:                2003, // the crawl year
		Sites:               50,
		MeanSitePages:       25,
		DynamicClusterPages: 400,
		DocClusterPages:     400,
	})
	fetcher := lmmrank.NewSnapshotFetcher(origin.Graph)

	// Crawl from the university home, dynamic pages included, with a page
	// budget as the dynamic-loop cutoff the paper describes.
	snapshot, stats, err := lmmrank.Crawl(fetcher, lmmrank.CrawlConfig{
		Seeds:    []string{"http://www.campus.example/"},
		MaxPages: 4000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crawl: fetched %d pages (%d failed, frontier truncated at %d)\n",
		stats.Fetched, stats.Failed, stats.TruncatedFrontier)
	fmt.Printf("snapshot: %d sites, %d documents, %d links\n\n",
		snapshot.NumSites(), snapshot.NumDocs(), snapshot.G.NumEdges())

	// Serve the snapshot with the Layered Method through the Engine API —
	// the form that stays cheap when the graph keeps changing.
	ctx := context.Background()
	eng, err := lmmrank.NewLocalEngine(snapshot, lmmrank.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ranking, err := eng.Rank(ctx, lmmrank.Query{TopK: 10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top 10 of the crawled snapshot (Layered Method):")
	for i, e := range ranking.Top {
		fmt.Printf("%-4d %-10.6f %s\n", i+1, e.Score, e.URL)
	}

	// Churn: one departmental site adds internal links after the crawl.
	// Engine.Update delivers the mutation race-free — Apply runs against
	// a copy-on-write clone published atomically, so in-flight queries
	// finish undisturbed — rebuilds only that site's structure and
	// warm-starts every later query from the previous solution.
	var site lmmrank.SiteID = 5
	err = eng.Update(ctx, lmmrank.GraphDelta{
		ChangedSites: []lmmrank.SiteID{site},
		Apply: func(dg *lmmrank.DocGraph) error {
			docs := dg.Sites[site].Docs
			if len(docs) >= 2 {
				dg.G.AddLink(int(docs[0]), int(docs[1]))
				dg.G.AddLink(int(docs[1]), int(docs[0]))
			}
			return nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	refreshed, err := eng.Rank(ctx, lmmrank.Query{})
	if err != nil {
		log.Fatal(err)
	}
	warmIters := refreshed.SiteIterations
	for _, it := range refreshed.LocalIterations {
		warmIters += it
	}
	fmt.Printf("\nEngine.Update after site %q changed: warm query converged in %d sweeps total\n",
		snapshot.Sites[site].Name, warmIters)
	fmt.Printf("‖updated − previous‖₁ = %.2e (local perturbation, local effect)\n",
		refreshed.DocRank.L1Diff(ranking.DocRank))
}
