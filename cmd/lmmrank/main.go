// Command lmmrank ranks the documents of a Web graph file and prints the
// top-k table, with the paper's Layered Method as the default and flat
// PageRank, BlockRank and HITS as baselines.
//
// Usage:
//
//	lmmrank -graph campus.graph [-method layered] [-top 15]
//	        [-damping 0.85] [-drop-self-loops] [-compare]
//
// The graph file may be in either format webgen writes; its first byte
// says which.
//
// Methods: layered (the paper's default, served through the Engine
// API), layered3 (three-layer domain→site→page), pagerank, blockrank,
// hits.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"lmmrank"
	"lmmrank/internal/blockrank"
	"lmmrank/internal/graph"
	"lmmrank/internal/hits"
	"lmmrank/internal/rankutil"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lmmrank:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		graphPath = flag.String("graph", "", "input graph file, text or binary (required)")
		method    = flag.String("method", "layered", "ranking method: layered, layered3, pagerank, blockrank, hits")
		top       = flag.Int("top", 15, "table length (the paper prints 15)")
		damping   = flag.Float64("damping", 0.85, "damping factor / gatekeeper α")
		dropSelf  = flag.Bool("drop-self-loops", false, "exclude intra-site links from the SiteGraph")
		compare   = flag.Bool("compare", false, "also compute flat PageRank and report agreement")
	)
	flag.Parse()
	if *graphPath == "" {
		flag.Usage()
		return fmt.Errorf("-graph is required")
	}

	dg, err := loadGraph(*graphPath)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d sites, %d documents, %d links\n\n",
		dg.NumSites(), dg.NumDocs(), dg.G.NumEdges())

	webCfg := lmmrank.WebConfig{
		Damping:   *damping,
		SiteGraph: lmmrank.SiteGraphOptions{DropSelfLoops: *dropSelf},
	}

	var scores lmmrank.Vector
	switch *method {
	case "layered", "layered3":
		// The Engine precomputes the serving structure; a long-lived
		// process would keep it and answer repeated (concurrent)
		// queries from it.
		eng, err := lmmrank.NewLocalEngine(dg, lmmrank.EngineOptions{
			SiteGraph: webCfg.SiteGraph,
		})
		if err != nil {
			return err
		}
		res, err := eng.Rank(context.Background(), lmmrank.Query{
			Damping:    *damping,
			ThreeLayer: *method == "layered3",
		})
		if err != nil {
			return err
		}
		scores = res.DocRank
	case "pagerank":
		scores, err = lmmrank.PageRank(dg, webCfg)
		if err != nil {
			return err
		}
	case "blockrank":
		res, err := blockrank.Compute(dg, blockrank.Config{Damping: *damping})
		if err != nil {
			return err
		}
		scores = res.Scores
	case "hits":
		res, err := hits.Run(dg.G, hits.Config{})
		if err != nil {
			return err
		}
		scores = res.Authority
	default:
		return fmt.Errorf("unknown method %q", *method)
	}

	fmt.Printf("top %d by %s:\n", *top, *method)
	printTop(dg, scores, *top)

	if *compare && *method != "pagerank" {
		flat, err := lmmrank.PageRank(dg, webCfg)
		if err != nil {
			return err
		}
		fmt.Printf("\nagreement with flat PageRank: Kendall τ = %.3f, overlap@%d = %.3f\n",
			lmmrank.KendallTau(scores, flat),
			*top, rankutil.OverlapAtK(scores, flat, *top))
	}
	return nil
}

func loadGraph(path string) (*lmmrank.DocGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.Read(f)
}

func printTop(dg *lmmrank.DocGraph, scores lmmrank.Vector, k int) {
	fmt.Printf("%-4s %-10s %s\n", "#", "score", "URL")
	for i, e := range lmmrank.TopDocs(dg, scores, k) {
		fmt.Printf("%-4d %-10.6f %s\n", i+1, e.Score, e.URL)
	}
}
