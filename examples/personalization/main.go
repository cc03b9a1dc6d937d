// Command personalization demonstrates the paper's §3.2 claim that the layered
// method personalizes "in an elegant way" at both layers: biasing the
// site-layer teleport promotes a whole site, biasing one site's
// document-layer teleport promotes pages within it, and the two compose.
//
//	go run ./examples/personalization
package main

import (
	"fmt"
	"log"

	"lmmrank"
)

func main() {
	web := lmmrank.GenerateCampusWeb(lmmrank.CampusWebConfig{
		Seed:                42,
		Sites:               30,
		MeanSitePages:       20,
		DynamicClusterPages: 200,
		DocClusterPages:     200,
	})
	dg := web.Graph

	// Focus: an ordinary page on an ordinary departmental site.
	focusSite := lmmrank.SiteID(12)
	focusDoc := dg.Sites[focusSite].Docs[1]
	fmt.Printf("focus page: %s\n\n", dg.URL(focusDoc))

	base, err := lmmrank.LayeredDocRank(dg, lmmrank.WebConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// Upper layer: teleport 60% of site-layer jumps to the focus site.
	sitePers := make(lmmrank.Vector, dg.NumSites())
	for i := range sitePers {
		sitePers[i] = 0.4 / float64(len(sitePers)-1)
	}
	sitePers[focusSite] = 0.6
	siteBiased, err := lmmrank.LayeredDocRank(dg, lmmrank.WebConfig{
		SitePersonalization: sitePers,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Lower layer: inside the focus site, teleport 60% to the focus page.
	docPers := make(lmmrank.Vector, dg.SiteSize(focusSite))
	for i := range docPers {
		docPers[i] = 0.4 / float64(len(docPers)-1)
	}
	for i, d := range dg.Sites[focusSite].Docs {
		if d == focusDoc {
			docPers[i] = 0.6
		}
	}
	docBiased, err := lmmrank.LayeredDocRank(dg, lmmrank.WebConfig{
		DocPersonalization: map[lmmrank.SiteID]lmmrank.Vector{focusSite: docPers},
	})
	if err != nil {
		log.Fatal(err)
	}

	both, err := lmmrank.LayeredDocRank(dg, lmmrank.WebConfig{
		SitePersonalization: sitePers,
		DocPersonalization:  map[lmmrank.SiteID]lmmrank.Vector{focusSite: docPers},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-26s %-14s %-14s\n", "variant", "focus score", "global rank")
	for _, row := range []struct {
		name string
		res  *lmmrank.WebResult
	}{
		{"uniform", base},
		{"site layer biased", siteBiased},
		{"doc layer biased", docBiased},
		{"both layers biased", both},
	} {
		fmt.Printf("%-26s %-14.6f %-14d\n",
			row.name, row.res.DocRank[focusDoc], rankOf(row.res.DocRank, int(focusDoc)))
	}
	fmt.Println("\nevery variant remains a probability distribution; the Partition")
	fmt.Println("Theorem composition is unchanged, so the distributed pipeline")
	fmt.Println("personalizes with zero extra coordination.")
}

// rankOf returns the 1-based position of doc i under scores.
func rankOf(scores lmmrank.Vector, i int) int {
	rank := 1
	for j, s := range scores {
		if s > scores[i] || (s == scores[i] && j < i) {
			rank++
		}
	}
	return rank
}
