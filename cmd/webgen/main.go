// Command webgen generates a synthetic campus web — the evaluation
// substrate standing in for the paper's EPFL crawl — and writes it as a
// text or binary graph file, with ground-truth page classes in a sidecar
// file when requested. With -blocky it instead generates a
// planted-block web (cross-site links stay inside coupling blocks
// except for a tunable escape fraction, and hostnames carry no block
// information) — the substrate for partition-quality experiments.
//
// Usage:
//
//	webgen -out campus.graph [-format text|bin] [-seed N] [-sites 218]
//	       [-mean-pages 60] [-dynamic 2500] [-docs 2500] [-labels labels.txt]
//	       [-blocky] [-blocks 8] [-inter-block 0.05]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"lmmrank"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "webgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out       = flag.String("out", "", "output graph file (required)")
		format    = flag.String("format", "text", "output format: text or bin")
		labels    = flag.String("labels", "", "optional file receiving per-doc ground-truth classes")
		seed      = flag.Int64("seed", 2005, "generator seed")
		sites     = flag.Int("sites", 218, "number of ordinary sites (the paper's count)")
		meanPages = flag.Int("mean-pages", 60, "mean pages per ordinary site")
		dynamic   = flag.Int("dynamic", 2500, "Webdriver-style agglomerate size (0 disables)")
		docs      = flag.Int("docs", 2500, "javadoc-style agglomerate size (0 disables)")
		blocky    = flag.Bool("blocky", false, "generate a planted-block web instead of the campus web")
		blocks    = flag.Int("blocks", 8, "number of planted coupling blocks (with -blocky)")
		inter     = flag.Float64("inter-block", 0.05, "probability a cross-site link escapes its block (with -blocky)")
	)
	flag.Parse()
	if *out == "" {
		flag.Usage()
		return fmt.Errorf("-out is required")
	}

	web := lmmrank.GenerateCampusWeb(lmmrank.CampusWebConfig{
		Seed:                *seed,
		Sites:               *sites,
		MeanSitePages:       *meanPages,
		DynamicClusterPages: *dynamic,
		DocClusterPages:     *docs,
		Blocky:              *blocky,
		Blocks:              *blocks,
		InterBlockFraction:  *inter,
	})

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	switch *format {
	case "text":
		err = lmmrank.WriteGraph(w, web.Graph)
	case "bin":
		err = lmmrank.WriteGraphBinary(w, web.Graph)
	default:
		return fmt.Errorf("unknown -format %q (want text or bin)", *format)
	}
	if err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}

	if *labels != "" {
		lf, err := os.Create(*labels)
		if err != nil {
			return err
		}
		defer lf.Close()
		lw := bufio.NewWriter(lf)
		fmt.Fprintln(lw, "# docID class")
		for d, c := range web.Class {
			fmt.Fprintf(lw, "%d %s\n", d, c)
		}
		if err := lw.Flush(); err != nil {
			return err
		}
	}

	fmt.Printf("wrote %s: %d sites, %d documents, %d links (seed %d)\n",
		*out, web.Graph.NumSites(), web.Graph.NumDocs(), web.Graph.G.NumEdges(), *seed)
	return nil
}
