// Command lmmcoord drives a fleet of lmmnode workers through one
// distributed Layered Method run: it loads a graph file, partitions the
// sites over the workers, gathers their local DocRanks, computes the
// SiteRank (centrally or on the fleet), and prints the composed top-k.
//
// Usage:
//
//	lmmcoord -graph campus.graph -workers host1:7100,host2:7100 [-top 15]
//	         [-siterank central|sync|async]
//	         [-async-ordered] [-async-seed 42]
//	         [-partition host|balanced|aggregate] [-partition-seed 0]
//	         [-max-worker-failures 1] [-max-redials 0]
//	         [-checkpoint siterank.ckpt] [-resume] [-runs 2]
//	         [-compress] [-timeout 30s]
//
// Shards are placed over the fleet by the -partition strategy —
// "balanced" (the default) spreads page count by weighted LPT,
// "host" is hostname-order round-robin, and "aggregate" co-locates
// strongly linked sites to minimize cut edges (seeded by
// -partition-seed); each run prints its cut-edge quality — and
// declared to the workers by content digest, so with -runs > 1
// every run after the first ships near-zero shard bytes and, handed the
// previous run's digests, hashes none. -max-worker-failures lets a
// run survive peers dying mid-flight (their shards are reassigned);
// -max-redials additionally redials lost peers in the background with
// jittered exponential backoff and re-admits them mid-run, rebalancing
// their shards back (near-zero bytes when their caches are still warm).
// -siterank selects the SiteRank mode (docs/ARCHITECTURE.md has the
// map): "central" (the default) solves the site layer on the
// coordinator, "sync" iterates it over the fleet one barrier round at
// a time, and "async" is the barrier-free protocol (workers sweep
// continuously, the coordinator merges in arrival order and confirms
// with synchronous verification rounds); -async-ordered with -async-seed
// makes its schedule deterministic and the SiteRank bitwise
// reproducible. A knob given without the mode that reads it
// (-async-ordered, -checkpoint with "central") is a usage error.
// -checkpoint persists
// the fleet-side SiteRank iterate to a file after every round; a
// coordinator restarted with -resume picks the iteration up from the
// last checkpointed round instead of round zero (without -resume a
// stale checkpoint is cleared first). -compress flate-compresses shard
// payloads on the wire; -timeout bounds each whole run with a context
// deadline that propagates into every worker exchange.
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
	"lmmrank/internal/partition"
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
		srMode    = flag.String("siterank", "central", "SiteRank mode: central, sync or async")
		asyncOrd  = flag.Bool("async-ordered", false, "with -siterank async: deterministic seeded sequential schedule")
		asyncSeed = flag.Int64("async-seed", 0, "with -async-ordered: seed of the worker-selection schedule")
		failures  = flag.Int("max-worker-failures", 1, "worker losses one run may absorb by reassigning shards (0 = fail on first loss)")
		redials   = flag.Int("max-redials", 0, "background redial attempts per lost worker (0 = lost workers stay lost)")
		ckptPath  = flag.String("checkpoint", "", "checkpoint the SiteRank iterate to this file (any -siterank mode but central)")
		resume    = flag.Bool("resume", false, "resume the SiteRank iteration from the checkpoint file")
		partName  = flag.String("partition", "balanced", "site placement strategy: host, balanced or aggregate")
		partSeed  = flag.Int64("partition-seed", 0, "seed for the aggregate strategy's label propagation")
		runs      = flag.Int("runs", 1, "repeat the ranking; runs after the first hit the workers' shard caches and hash no shard")
		compress  = flag.Bool("compress", false, "flate-compress shard payloads on the wire")
		timeout   = flag.Duration("timeout", 0, "deadline per ranking run (0 = none); propagates into every worker exchange")
	)
	flag.Parse()
	if *graphPath == "" || *workers == "" {
		flag.Usage()
		return fmt.Errorf("-graph and -workers are required")
	}
	// Flag combinations fail before any worker is dialed.
	if *resume && *ckptPath == "" {
		return fmt.Errorf("-resume needs -checkpoint")
	}
	var mode coordinator.SiteRankMode
	switch *srMode {
	case "central":
		mode = coordinator.SiteRankCentral
	case "sync":
		mode = coordinator.SiteRankSync
	case "async":
		mode = coordinator.SiteRankAsync
	default:
		return fmt.Errorf("unknown -siterank mode %q (want central, sync or async)", *srMode)
	}
	if *asyncOrd && mode != coordinator.SiteRankAsync {
		return fmt.Errorf("-async-ordered needs -siterank async")
	}
	if *ckptPath != "" && mode == coordinator.SiteRankCentral {
		return fmt.Errorf("-checkpoint needs -siterank sync or async (the central SiteRank has no fleet iteration to checkpoint)")
	}
	var strat partition.Strategy
	switch *partName {
	case "host":
		strat = partition.Host{}
	case "balanced":
		strat = partition.Balanced{}
	case "aggregate":
		strat = partition.Aggregate{Seed: *partSeed}
	default:
		return fmt.Errorf("unknown -partition strategy %q (want host, balanced or aggregate)", *partName)
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
		Damping:      *damping,
		SiteRank:     mode,
		AsyncOrdered: *asyncOrd,
		AsyncSeed:    *asyncSeed,
		Compress:     *compress,
		Partition:    strat,
		Retry: coordinator.RetryPolicy{
			MaxWorkerFailures: *failures,
			MaxRedials:        *redials,
		},
	}
	if *ckptPath != "" {
		ckpt := coordinator.NewFileCheckpoint(*ckptPath)
		if !*resume {
			// A fresh start must not accidentally resume last night's run.
			if err := ckpt.Clear(); err != nil {
				return err
			}
		}
		cfg.Checkpoint = ckpt
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
		if res.Stats.ShardBytesRaw > 0 {
			fmt.Printf("; compression %.2f -> %.2f MB",
				float64(res.Stats.ShardBytesRaw)/1e6,
				float64(res.Stats.ShardBytesCompressed)/1e6)
		}
		if res.Stats.WorkersLost > 0 {
			fmt.Printf("; survived %d worker losses (%d shards reassigned, %d retries)",
				res.Stats.WorkersLost, res.Stats.Reassignments, res.Stats.Retries)
		}
		if res.Stats.RedialAttempts > 0 || res.Stats.WorkersRejoined > 0 {
			fmt.Printf("; re-admitted %d workers (%d redials, %.2f MB re-shipped on rejoin)",
				res.Stats.WorkersRejoined, res.Stats.RedialAttempts,
				float64(res.Stats.RejoinShardBytes)/1e6)
		}
		if res.Stats.ResumedFromRound > 0 {
			fmt.Printf("; resumed SiteRank from checkpointed round %d", res.Stats.ResumedFromRound)
		}
		if res.Stats.AsyncUpdatesMerged > 0 {
			fmt.Printf("; async merged %d sweeps (%d verification rounds)",
				res.Stats.AsyncUpdatesMerged, res.Stats.AsyncVerifyRounds)
		}
		fmt.Println()
		fmt.Printf("run %d: partition %s: cut weight %.0f (%.2f%% of site-graph weight; ~%.1f KB cross-shard per doc-level sweep avoided)\n",
			run, *partName, res.Stats.CutEdges, 100*res.Stats.CutFraction,
			float64(res.Stats.CrossShardBytes)/1e3)
	}
	fmt.Println()

	fmt.Printf("top %d by distributed Layered Method:\n", *top)
	fmt.Printf("%-4s %-10s %s\n", "#", "score", "URL")
	for i, e := range lmmrank.TopDocs(dg, res.DocRank, *top) {
		fmt.Printf("%-4d %-10.6f %s\n", i+1, e.Score, e.URL)
	}
	return nil
}
