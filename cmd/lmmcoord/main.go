// Command lmmcoord drives a fleet of lmmnode workers through one
// distributed Layered Method run: it loads a graph file, partitions the
// sites over the workers, gathers their local DocRanks, computes the
// SiteRank (centrally or on the fleet), and prints the composed top-k.
//
// Usage:
//
//	lmmcoord -graph campus.graph -workers host1:7100,host2:7100 [-top 15]
//	         [-siterank central|sync]
//	         [-damping 0.85] [-max-worker-failures 1] [-max-redials 0]
//	         [-runs 2] [-timeout 30s]
//
// Shards are placed over the fleet by weighted LPT over page counts,
// and declared to the workers by content digest, so with -runs > 1
// every run after the first ships near-zero shard bytes and, handed the
// previous run's digests, hashes none. -max-worker-failures lets a
// run survive peers dying mid-flight (their shards are reassigned);
// -max-redials additionally redials lost peers in the background with
// jittered exponential backoff and re-admits them mid-run, rebalancing
// their shards back (near-zero bytes when their caches are still warm).
// -siterank selects the SiteRank mode (docs/ARCHITECTURE.md has the
// map): "central" (the default) solves the site layer on the
// coordinator, and "sync" iterates it over the fleet one barrier round
// at a time. -damping must lie strictly between 0 and 1. -timeout
// bounds each whole run with a context deadline that propagates into
// every worker exchange. Every flag is checked before any worker is
// dialed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lmmrank"
	"lmmrank/internal/dist/coordinator"
	"lmmrank/internal/graph"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lmmcoord:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		graphPath = flag.String("graph", "", "input graph file, text or binary (required)")
		workers   = flag.String("workers", "", "comma-separated worker addresses (required)")
		top       = flag.Int("top", 15, "table length")
		damping   = flag.Float64("damping", 0.85, "damping factor / gatekeeper α")
		srMode    = flag.String("siterank", "central", "SiteRank mode: central or sync")
		failures  = flag.Int("max-worker-failures", 1, "worker losses one run may absorb by reassigning shards (0 = fail on first loss)")
		redials   = flag.Int("max-redials", 0, "background redial attempts per lost worker (0 = lost workers stay lost)")
		runs      = flag.Int("runs", 1, "repeat the ranking; runs after the first hit the workers' shard caches and hash no shard")
		timeout   = flag.Duration("timeout", 0, "deadline per ranking run (0 = none); propagates into every worker exchange")
	)
	flag.Parse()
	if *graphPath == "" || *workers == "" {
		flag.Usage()
		return fmt.Errorf("-graph and -workers are required")
	}
	// Flag combinations fail before any worker is dialed.
	if *runs < 1 {
		return fmt.Errorf("-runs %d: want at least 1", *runs)
	}
	if !(*damping > 0 && *damping < 1) {
		return fmt.Errorf("-damping %g: want a value strictly between 0 and 1", *damping)
	}
	var mode coordinator.SiteRankMode
	switch *srMode {
	case "central":
		mode = coordinator.SiteRankCentral
	case "sync":
		mode = coordinator.SiteRankSync
	default:
		return fmt.Errorf("unknown -siterank mode %q (want central or sync)", *srMode)
	}
	f, err := os.Open(*graphPath)
	if err != nil {
		return err
	}
	defer f.Close()
	dg, err := graph.Read(f)
	if err != nil {
		return err
	}

	addrs := strings.Split(*workers, ",")
	coord, err := coordinator.Dial(addrs)
	if err != nil {
		return err
	}
	defer coord.Close()
	if err := coord.Ping(); err != nil {
		return err
	}
	fmt.Printf("connected to %d workers; graph: %d sites, %d documents\n",
		coord.NumWorkers(), dg.NumSites(), dg.NumDocs())

	// Precompute the serving structure once (SiteGraph, local subgraphs,
	// CSR matrices); the distributed run then only pays for shipping and
	// ranking — and a long-lived coordinator process could reuse the
	// Ranker across many runs.
	prepStart := time.Now()
	rk, err := lmmrank.NewRanker(dg, lmmrank.RankerOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("precomputed ranking structure in %v\n", time.Since(prepStart).Round(time.Millisecond))

	cfg := coordinator.Config{
		Damping:  *damping,
		SiteRank: mode,
		Retry: coordinator.RetryPolicy{
			MaxWorkerFailures: *failures,
			MaxRedials:        *redials,
		},
	}
	var res *coordinator.Result
	var known coordinator.Warm
	for run := 1; run <= *runs; run++ {
		start := time.Now()
		ctx := context.Background()
		var cancel context.CancelFunc = func() {}
		if *timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, *timeout)
		}
		res, err = coord.RankPreparedCtx(ctx, rk, cfg, known)
		cancel()
		if err != nil {
			return err
		}
		known.Digests = res.Digests
		fmt.Printf("run %d: ranked in %v (load %v, local %v, siterank %v; %d messages, %.2f MB out, %.2f MB in)\n",
			run,
			time.Since(start).Round(time.Millisecond),
			res.Stats.LoadDuration.Round(time.Millisecond),
			res.Stats.LocalRankDuration.Round(time.Millisecond),
			res.Stats.SiteRankDuration.Round(time.Millisecond),
			res.Stats.Messages,
			float64(res.Stats.BytesSent)/1e6,
			float64(res.Stats.BytesReceived)/1e6)
		fmt.Printf("run %d: cache %d hits / %d shards re-shipped (%.2f MB of shards not re-shipped; %.2f MB hashed for digests)",
			run, res.Stats.CacheHits, res.Stats.ShardsReshipped,
			float64(res.Stats.ShardBytesSaved)/1e6,
			float64(res.Stats.DigestBytesHashed)/1e6)
		if res.Stats.WorkersLost > 0 {
			fmt.Printf("; survived %d worker losses (%d shards reassigned, %d retries)",
				res.Stats.WorkersLost, res.Stats.Reassignments, res.Stats.Retries)
		}
		if res.Stats.RedialAttempts > 0 || res.Stats.WorkersRejoined > 0 {
			fmt.Printf("; re-admitted %d workers (%d redials, %.2f MB re-shipped on rejoin)",
				res.Stats.WorkersRejoined, res.Stats.RedialAttempts,
				float64(res.Stats.RejoinShardBytes)/1e6)
		}
		fmt.Println()
	}
	fmt.Println()

	fmt.Printf("top %d by distributed Layered Method:\n", *top)
	fmt.Printf("%-4s %-10s %s\n", "#", "score", "URL")
	for i, e := range lmmrank.TopDocs(dg, res.DocRank, *top) {
		fmt.Printf("%-4d %-10.6f %s\n", i+1, e.Score, e.URL)
	}
	return nil
}
