// Package crawler acquires DocGraphs the way the paper's dataset was
// built (§3.3): breadth-first crawling from seed URLs, following
// hyperlinks and recording every discovered page. Two details the paper
// discusses are modeled explicitly:
//
//   - dynamic pages are crawled by default ("without including them, the
//     captured Web graph would be a rather skewed one"), with an
//     ExcludeQueries option reproducing the convention other studies used;
//   - dynamic-page traps are cut off by a page budget ("researchers
//     usually let the crawler run and then stop it after it has been
//     running for a period of time") — MaxPages plays that role
//     deterministically.
//
// The Fetcher interface abstracts the web being crawled; SnapshotFetcher
// serves a synthetic web (e.g. package webgen's output) with optional
// failure injection, standing in for live HTTP.
package crawler

import (
	"errors"
	"fmt"

	"lmmrank/internal/graph"
)

// ErrNotFound is the canonical fetch failure for unknown URLs.
var ErrNotFound = errors.New("crawler: page not found")

// Fetcher retrieves the out-links of one page. Implementations must be
// safe for sequential reuse; the crawler is single-threaded by design so
// crawls are reproducible.
type Fetcher interface {
	Fetch(url string) (links []string, err error)
}

// Config parameterizes a crawl.
type Config struct {
	// Seeds are the starting URLs (the paper used www.epfl.ch).
	Seeds []string
	// MaxPages bounds the number of fetched pages (0 = unlimited) — the
	// dynamic-page-trap cutoff.
	MaxPages int
	// MaxDepth bounds the BFS depth from the seeds (0 = unlimited).
	MaxDepth int
	// ExcludeQueries skips URLs containing '?' — the dynamic-page
	// exclusion convention the paper argues against; exposed for the
	// ablation.
	ExcludeQueries bool
}

// Stats summarizes a finished crawl.
type Stats struct {
	// Fetched pages contributed out-links to the graph.
	Fetched int
	// Failed fetches (pages remain in the graph as dangling nodes, as in
	// a real crawl snapshot).
	Failed int
	// SkippedQueries counts URLs dropped by ExcludeQueries.
	SkippedQueries int
	// TruncatedFrontier is the number of discovered-but-unfetched URLs
	// left when the budget ran out.
	TruncatedFrontier int
}

// Crawl runs a deterministic breadth-first crawl and returns the captured
// DocGraph. Discovered-but-unfetched pages appear as dangling documents,
// exactly like a stopped real crawl.
func Crawl(f Fetcher, cfg Config) (*graph.DocGraph, Stats, error) {
	if len(cfg.Seeds) == 0 {
		return nil, Stats{}, fmt.Errorf("crawler: no seeds")
	}
	b := graph.NewBuilder()
	var stats Stats

	type item struct {
		url   string
		depth int
	}
	seen := make(map[string]bool)
	var frontier []item
	enqueue := func(url string, depth int) {
		if seen[url] {
			return
		}
		if cfg.ExcludeQueries && hasQuery(url) {
			stats.SkippedQueries++
			seen[url] = true
			return
		}
		seen[url] = true
		b.AddDoc(url)
		frontier = append(frontier, item{url: url, depth: depth})
	}
	for _, s := range cfg.Seeds {
		enqueue(s, 0)
	}

	for len(frontier) > 0 {
		if cfg.MaxPages > 0 && stats.Fetched >= cfg.MaxPages {
			stats.TruncatedFrontier = len(frontier)
			break
		}
		cur := frontier[0]
		frontier = frontier[1:]
		if cfg.MaxDepth > 0 && cur.depth >= cfg.MaxDepth {
			continue
		}
		links, err := f.Fetch(cur.url)
		if err != nil {
			stats.Failed++
			continue
		}
		stats.Fetched++
		for _, target := range links {
			if cfg.ExcludeQueries && hasQuery(target) {
				if !seen[target] {
					stats.SkippedQueries++
					seen[target] = true
				}
				continue
			}
			enqueue(target, cur.depth+1)
			b.AddLink(cur.url, target)
		}
	}
	dg := b.Build()
	if err := dg.Validate(); err != nil {
		return nil, stats, fmt.Errorf("crawler: captured graph invalid: %w", err)
	}
	return dg, stats, nil
}

func hasQuery(url string) bool {
	for i := 0; i < len(url); i++ {
		if url[i] == '?' {
			return true
		}
	}
	return false
}

// SnapshotFetcher serves a fixed DocGraph as a virtual web, with optional
// failure injection for crash-consistency tests.
type SnapshotFetcher struct {
	dg    *graph.DocGraph
	byURL map[string]graph.DocID
	// Fail marks URLs whose fetch returns an error (simulating timeouts,
	// 5xx responses, robots exclusions).
	Fail map[string]bool
}

var _ Fetcher = (*SnapshotFetcher)(nil)

// NewSnapshotFetcher indexes a DocGraph for serving.
func NewSnapshotFetcher(dg *graph.DocGraph) *SnapshotFetcher {
	f := &SnapshotFetcher{
		dg:    dg,
		byURL: make(map[string]graph.DocID, dg.NumDocs()),
	}
	for d := range graph.DocID(dg.NumDocs()) {
		f.byURL[dg.URL(d)] = d
	}
	return f
}

// Fetch implements Fetcher: it returns the snapshot's out-links for the
// URL, once per edge unit of weight (multiplicity preserved).
func (f *SnapshotFetcher) Fetch(url string) ([]string, error) {
	if f.Fail[url] {
		return nil, fmt.Errorf("crawler: injected failure for %s", url)
	}
	d, ok := f.byURL[url]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, url)
	}
	var links []string
	f.dg.G.EachEdge(int(d), func(e graph.Edge) {
		target := f.dg.URL(graph.DocID(e.To))
		// Preserve link multiplicity so SiteLink counts survive the
		// crawl round-trip.
		for k := 0; k < int(e.Weight); k++ {
			links = append(links, target)
		}
	})
	return links, nil
}

// URL returns the snapshot URL of a document (test helper).
func (f *SnapshotFetcher) URL(d graph.DocID) string { return f.dg.URL(d) }
