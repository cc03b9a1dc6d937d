// Command lmmcoord drives a fleet of lmmnode workers through one
// distributed Layered Method run: it loads a graph file and serves it
// from the fleet through a DistEngine, which partitions the sites over
// the workers, gathers their local DocRanks, solves the SiteRank and
// composes the top-k it prints.
//
// Usage:
//
//	lmmcoord -graph campus.graph -workers host1:7100,host2:7100 [-top 15]
//	         [-damping 0.85] [-max-worker-failures 1] [-max-redials 0]
//	         [-runs 2] [-timeout 30s]
//
// Shards are placed over the fleet by weighted LPT over page counts,
// and declared to the workers by content digest, so with -runs > 1
// every run after the first ships near-zero shard bytes and, the engine
// keeping the first run's digests, hashes none; at the default -damping
// it sends no message at all. -max-worker-failures
// lets a run survive peers dying mid-flight (their shards are reassigned);
// -max-redials additionally redials lost peers in the background with
// jittered exponential backoff; a reconnected peer rejoins at the next
// run, which places its shards back on it (near-zero bytes when its
// cache is still warm).
// -damping must lie strictly between 0 and 1. -timeout bounds each whole
// run with a context deadline that propagates into every worker
// exchange. Every flag is checked before any worker is dialed.
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

	// The engine precomputes the serving structure once (SiteGraph and
	// roster indexes); the first run then pays for shipping, the fleet's
	// local DocRanks and the engine's site solve. At the default -damping
	// (0.85, served as the default query) every later run is composed from
	// what the first filled and sends no message; any other damping is a
	// fleet run of its own each time, declared by the digests the engine
	// keeps: runs after the first hash nothing.
	prepStart := time.Now()
	eng, err := lmmrank.NewDistEngine(&lmmrank.Cluster{Coord: coord}, dg, lmmrank.DistConfig{
		Retry: lmmrank.DistRetryPolicy{
			MaxWorkerFailures: *failures,
			MaxRedials:        *redials,
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("precomputed ranking structure in %v\n", time.Since(prepStart).Round(time.Millisecond))

	var res *lmmrank.Result
	for run := 1; run <= *runs; run++ {
		start := time.Now()
		ctx := context.Background()
		var cancel context.CancelFunc = func() {}
		if *timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, *timeout)
		}
		res, err = eng.Rank(ctx, lmmrank.Query{Damping: *damping, TopK: *top})
		cancel()
		if err != nil {
			return err
		}
		st := res.Dist
		fmt.Printf("run %d: ranked in %v (load %v, local %v, %d site sweeps; %d messages, %.2f MB out, %.2f MB in)\n",
			run,
			time.Since(start).Round(time.Millisecond),
			st.LoadDuration.Round(time.Millisecond),
			st.LocalRankDuration.Round(time.Millisecond),
			res.SiteIterations,
			st.Messages,
			float64(st.BytesSent)/1e6,
			float64(st.BytesReceived)/1e6)
		fmt.Printf("run %d: cache %d hits / %d shards re-shipped (%.2f MB of shards not re-shipped; %.2f MB hashed for digests)",
			run, st.CacheHits, st.ShardsReshipped,
			float64(st.ShardBytesSaved)/1e6,
			float64(st.DigestBytesHashed)/1e6)
		if st.WorkersLost > 0 {
			fmt.Printf("; survived %d worker losses (%d shards reassigned, %d retries)",
				st.WorkersLost, st.Reassignments, st.Retries)
		}
		if st.RedialAttempts > 0 || st.WorkersRejoined > 0 {
			fmt.Printf("; %d workers rejoined (%d redials, %.2f MB re-shipped on rejoin)",
				st.WorkersRejoined, st.RedialAttempts,
				float64(st.RejoinShardBytes)/1e6)
		}
		fmt.Println()
	}
	fmt.Println()

	fmt.Printf("top %d by distributed Layered Method:\n", *top)
	fmt.Printf("%-4s %-10s %s\n", "#", "score", "URL")
	for i, e := range res.Top {
		fmt.Printf("%-4d %-10.6f %s\n", i+1, e.Score, e.URL)
	}
	return nil
}
