// Command search demonstrates the paper's future work (§4): combining query-based
// ranking (a TF-IDF vector space model) with link-based ranking (the
// layered DocRank). The same query is answered with pure text scores and
// with fused scores, showing how link evidence reorders equally-relevant
// pages — using the spam-resistant layered ranking rather than flat
// PageRank as the link component.
//
//	go run ./examples/search [-query topic007] [-lambda 0.5]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"lmmrank"
)

func main() {
	query := flag.String("query", "topic007 department", "space-separated query terms")
	lambda := flag.Float64("lambda", 0.5, "fusion weight: 1 = pure text, 0 = pure link")
	flag.Parse()

	web := lmmrank.GenerateCampusWeb(lmmrank.CampusWebConfig{
		Seed:                9,
		Sites:               40,
		MeanSitePages:       25,
		DynamicClusterPages: 300,
		DocClusterPages:     300,
	})
	index := lmmrank.SyntheticCorpus(web, 9)
	fmt.Printf("corpus: %d documents, %d terms\n", index.NumDocs(), index.NumTerms())

	ranked, err := lmmrank.LayeredDocRank(web.Graph, lmmrank.WebConfig{})
	if err != nil {
		log.Fatal(err)
	}
	terms := strings.Fields(*query)

	pure, err := lmmrank.NewSearchEngine(index, ranked.DocRank, 1)
	if err != nil {
		log.Fatal(err)
	}
	fused, err := lmmrank.NewSearchEngine(index, ranked.DocRank, *lambda)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nquery: %q — pure text (λ=1):\n", *query)
	printResults(web, must(pure.Search(terms, 8)))
	fmt.Printf("\nquery: %q — fused with layered DocRank (λ=%.2f):\n", *query, *lambda)
	printResults(web, must(fused.Search(terms, 8)))
}

func printResults(web *lmmrank.CampusWeb, res []lmmrank.SearchResult) {
	fmt.Printf("%-4s %-9s %-9s %-9s %s\n", "#", "combined", "text", "link", "URL")
	for i, r := range res {
		fmt.Printf("%-4d %-9.4f %-9.4f %-9.4f %s\n",
			i+1, r.Combined, r.Query, r.Link, web.Graph.URL(r.Doc))
	}
}

func must(res []lmmrank.SearchResult, err error) []lmmrank.SearchResult {
	if err != nil {
		log.Fatal(err)
	}
	return res
}
