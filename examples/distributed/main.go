// Command distributed runs the paper's peer-to-peer vision end to end
// on one machine: a fleet of worker peers on loopback TCP, each hosting
// a share of the campus web's sites (balanced by page count) and
// computing local DocRanks independently; a coordinator computes the
// SiteRank, composes the global ranking by the Partition Theorem, and
// verifies it against the single-process result.
//
// It then demonstrates the production traits of the runtime: a second
// run against the workers' digest caches ships almost no shard bytes,
// and a worker killed between runs is survived by reassigning its
// shards to the remaining peers.
//
//	go run ./examples/distributed [-workers 4] [-siterank central|sync|batched|async] [-batch-rounds 4]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"lmmrank"
)

func main() {
	workers := flag.Int("workers", 4, "number of worker peers")
	siteRank := flag.String("siterank", "central",
		"where the SiteRank is computed: central (on the coordinator), or on the fleet — sync, batched or async")
	batch := flag.Int("batch-rounds", 4, "power rounds per exchange under -siterank batched")
	flag.Parse()

	web := lmmrank.GenerateCampusWeb(lmmrank.CampusWebConfig{
		Seed:                7,
		Sites:               60,
		MeanSitePages:       30,
		DynamicClusterPages: 500,
		DocClusterPages:     500,
	})
	fmt.Printf("web: %d sites, %d documents\n", web.Graph.NumSites(), web.Graph.NumDocs())

	cl, err := lmmrank.StartCluster(*workers)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	fmt.Printf("cluster: %d workers on %v\n\n", len(cl.Workers), cl.Addrs)

	// Precompute the serving structure once; repeated runs then only pay
	// for shipping (first run) and ranking.
	rk, err := lmmrank.NewRanker(web.Graph, lmmrank.RankerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	cfg := lmmrank.DistConfig{Retry: lmmrank.DistRetryPolicy{MaxWorkerFailures: 1}}
	switch *siteRank {
	case "central":
	case "sync":
		cfg.SiteRank = lmmrank.SiteRankSync
	case "batched":
		cfg.SiteRank, cfg.BatchRounds = lmmrank.SiteRankBatched, *batch
	case "async":
		cfg.SiteRank = lmmrank.SiteRankAsync
	default:
		log.Fatalf("unknown -siterank mode %q (want central, sync, batched or async)", *siteRank)
	}

	var res *lmmrank.DistResult
	for run := 1; run <= 2; run++ {
		start := time.Now()
		res, err = cl.Coord.RankPrepared(rk, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("run %d: distributed ranking in %v\n", run, time.Since(start).Round(time.Millisecond))
		fmt.Printf("  load sites:   %v (%d cache hits, %d misses, %.2f MB not re-shipped)\n",
			res.Stats.LoadDuration.Round(time.Millisecond),
			res.Stats.CacheHits, res.Stats.CacheMisses, float64(res.Stats.ShardBytesSaved)/1e6)
		fmt.Printf("  local ranks:  %v (computed on the peers)\n", res.Stats.LocalRankDuration.Round(time.Millisecond))
		fmt.Printf("  siterank:     %v", res.Stats.SiteRankDuration.Round(time.Millisecond))
		if cfg.SiteRank != lmmrank.SiteRankCentral {
			fmt.Printf(" (%d distributed power rounds", res.Stats.SiteRankRounds)
			if res.Stats.BatchMessagesSaved > 0 {
				fmt.Printf(", batching saved %d messages", res.Stats.BatchMessagesSaved)
			}
			fmt.Printf(")")
		}
		fmt.Printf("\n  transport:    %d messages, %.2f MB out, %.2f MB in\n\n",
			res.Stats.Messages, float64(res.Stats.BytesSent)/1e6, float64(res.Stats.BytesReceived)/1e6)
	}

	// Verify the Partition Theorem held across the wire.
	local, err := lmmrank.LayeredDocRank(web.Graph, lmmrank.WebConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("‖distributed − single-process‖₁ = %.2e\n\n", res.DocRank.L1Diff(local.DocRank))

	// Fault tolerance: kill a peer and rank again. Its shards are
	// reassigned to the survivors; the ranking is unchanged.
	if len(cl.Workers) > 1 {
		if err := cl.Kill(len(cl.Workers) - 1); err != nil {
			log.Fatal(err)
		}
		res, err = cl.Coord.RankPrepared(rk, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("after killing one worker: %d lost, %d shards reassigned, ‖Δ‖₁ = %.2e\n\n",
			res.Stats.WorkersLost, res.Stats.Reassignments, res.DocRank.L1Diff(local.DocRank))
	}

	fmt.Println("top 10 documents (distributed Layered Method):")
	for i, e := range lmmrank.TopDocs(web.Graph, res.DocRank, 10) {
		fmt.Printf("%-4d %-10.6f %s\n", i+1, e.Score, e.URL)
	}
}
