// Command serving demonstrates the Engine API — the one serving surface
// over the local and distributed backends: a LocalEngine answering
// mixed queries (uniform, site-personalized, top-k, three-layer) from
// many goroutines at once, a DistEngine answering the same Query type
// from a worker fleet, and a context deadline cutting a query short.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"lmmrank"
)

func main() {
	web := lmmrank.GenerateCampusWeb(lmmrank.CampusWebConfig{
		Seed: 7, Sites: 40, MeanSitePages: 20,
		DynamicClusterPages: 200, DocClusterPages: 200,
	})
	dg := web.Graph
	fmt.Printf("campus web: %d sites, %d documents\n\n", dg.NumSites(), dg.NumDocs())

	// One engine, built once: the SiteGraph, every local subgraph and
	// all transition matrices are precomputed here. Queries only read.
	eng, err := lmmrank.NewLocalEngine(dg, lmmrank.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// A personalized query per "user", served concurrently. Results are
	// caller-owned — each goroutine keeps its own without cloning.
	var wg sync.WaitGroup
	answers := make([]*lmmrank.Result, 4)
	for u := range answers {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			pers := make(lmmrank.Vector, dg.NumSites())
			for i := range pers {
				pers[i] = 1
			}
			pers[u] = 20 // each user favors a different site
			pers.Normalize()
			res, err := eng.Rank(ctx, lmmrank.Query{SitePersonalization: pers, TopK: 3})
			if err != nil {
				log.Fatal(err)
			}
			answers[u] = res
		}(u)
	}
	wg.Wait()
	for u, res := range answers {
		fmt.Printf("user %d top hit: %s (%.5f)\n", u, res.Top[0].URL, res.Top[0].Score)
	}

	// The same engine serves the three-layer model per query.
	res3, err := eng.Rank(ctx, lmmrank.Query{ThreeLayer: true, TopK: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nthree-layer: %d domains, top hit %s\n", len(res3.Domains), res3.Top[0].URL)

	// A deadline bounds a query end to end; an absurdly tight one shows
	// the cooperative abort mid-solve.
	tight, cancel := context.WithTimeout(ctx, time.Nanosecond)
	defer cancel()
	if _, err := eng.Rank(tight, lmmrank.Query{}); err != nil {
		fmt.Printf("tight deadline: %v\n", err)
	}

	// The distributed backend serves the very same Query type: local
	// DocRanks run on the fleet, shards are digest-cached and (here)
	// flate-compressed, and the result carries transport stats.
	cl, err := lmmrank.StartCluster(3)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	dist, err := lmmrank.NewDistEngine(cl, dg, lmmrank.DistConfig{Compress: true})
	if err != nil {
		log.Fatal(err)
	}
	dres, err := dist.Rank(ctx, lmmrank.Query{TopK: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndistributed top hit: %s (%.5f)\n", dres.Top[0].URL, dres.Top[0].Score)
	fmt.Printf("fleet: %d messages, shard payload %.1f KB on the wire (%.1f KB before compression)\n",
		dres.Dist.Messages,
		float64(dres.Dist.ShardBytesCompressed)/1e3,
		float64(dres.Dist.ShardBytesRaw)/1e3)

	// Warm runs reuse the workers' caches and the coordinator's digest
	// memo: near-zero shard bytes, zero digest hashing.
	warm, err := dist.Rank(ctx, lmmrank.Query{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm run: %d cache hits, %d digest bytes hashed\n",
		warm.Dist.CacheHits, warm.Dist.DigestBytesHashed)
}
