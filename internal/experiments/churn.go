package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/matrix"
	"lmmrank/internal/webgen"
)

// ChurnResult measures the P2P churn path: a sequence of site-local link
// changes handled by incremental re-ranking (Ranker.Rebuild + RankRefresh:
// clean sites' local ranks carried verbatim) and by the plain serving-path
// Engine.Update (the same rebuild + a query seeded everywhere) versus full
// recomputation. The layered structure is what makes the incremental paths
// possible at all — flat PageRank has no analogue of "only this site changed".
type ChurnResult struct {
	// Events is the number of site-mutation events simulated.
	Events int
	// IncrementalTotal and FullTotal are cumulative wall times of the two
	// functional strategies over the whole event sequence; EngineTotal is
	// the serving path (lmmrank Engine.Update + one query) over the same
	// events.
	IncrementalTotal, FullTotal, EngineTotal time.Duration
	// Speedup = FullTotal / IncrementalTotal; EngineSpeedup =
	// FullTotal / EngineTotal.
	Speedup, EngineSpeedup float64
	// MaxGap is the largest L1 distance between the incremental and the
	// fully recomputed ranking across all events (correctness bound);
	// EngineMaxGap is the same bound for the engine path.
	MaxGap, EngineMaxGap float64
	// LocalSolvesIncremental and LocalSolvesFull count local PageRank
	// computations performed by each strategy (the work the paper's
	// decomposition localizes).
	LocalSolvesIncremental, LocalSolvesFull int
}

// RunChurn simulates events site mutations on a campus web and compares
// incremental refresh against full recomputation after every event.
func RunChurn(seed int64, events int) (*ChurnResult, error) {
	if events <= 0 {
		events = 25
	}
	cfg := webgen.Config{
		Seed: seed, Sites: 80, MeanSitePages: 25, AuthorityPages: 6,
		IntraLinksPerPage: 2, InterLinkFraction: 0.25,
		DynamicClusterPages: 300, DocClusterPages: 300,
	}
	web := webgen.Generate(cfg)
	dg := web.Graph
	rng := rand.New(rand.NewSource(seed + 1))
	webCfg := lmm.WebConfig{Tol: 1e-10}

	prev, err := lmm.LayeredDocRank(dg, webCfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: churn initial rank: %w", err)
	}

	// The serving path (what Engine.Update runs): a precomputed Ranker
	// rebuilt incrementally per event, queries warm-started from the
	// previous solution.
	rk, err := lmm.NewRanker(dg, lmm.RankerOptions{})
	if err != nil {
		return nil, fmt.Errorf("experiments: churn ranker: %w", err)
	}
	rk.Prepare()
	seedSite := prev.SiteRank.Clone()
	seedLocals := make([]matrix.Vector, len(prev.LocalRanks))
	for s, lr := range prev.LocalRanks {
		seedLocals[s] = lr.Clone()
	}

	out := &ChurnResult{Events: events}
	for e := 0; e < events; e++ {
		// Mutate one ordinary site: a few new intra-site links.
		site := graph.SiteID(rng.Intn(cfg.Sites))
		docs := dg.Sites[site].Docs
		if len(docs) < 2 {
			continue
		}
		for k := rng.Intn(4) + 2; k > 0; k-- {
			a := docs[rng.Intn(len(docs))]
			b := docs[rng.Intn(len(docs))]
			if a != b {
				dg.G.AddLink(int(a), int(b))
			}
		}

		// A Ranker per event: the scratch prev aliases is never rewritten.
		start := time.Now()
		incRk, err := rk.Rebuild([]graph.SiteID{site})
		if err != nil {
			return nil, fmt.Errorf("experiments: churn event %d incremental rebuild: %w", e, err)
		}
		refresh := webCfg
		refresh.SiteStart, refresh.LocalStarts = prev.SiteRank, prev.LocalRanks
		inc, err := incRk.RankRefresh([]graph.SiteID{site}, refresh)
		if err != nil {
			return nil, fmt.Errorf("experiments: churn event %d incremental: %w", e, err)
		}
		out.IncrementalTotal += time.Since(start)
		for _, iters := range inc.LocalIterations {
			if iters > 0 {
				out.LocalSolvesIncremental++
			}
		}

		// Serving path: incremental structure rebuild plus one
		// warm-seeded query — what Engine.Update does per churn batch.
		start = time.Now()
		rk2, err := rk.Rebuild([]graph.SiteID{site})
		if err != nil {
			return nil, fmt.Errorf("experiments: churn event %d rebuild: %w", e, err)
		}
		seeded := webCfg
		seeded.SiteStart, seeded.LocalStarts = seedSite, seedLocals
		served, err := rk2.Rank(seeded)
		if err != nil {
			return nil, fmt.Errorf("experiments: churn event %d serve: %w", e, err)
		}
		out.EngineTotal += time.Since(start)
		seedSite = served.SiteRank.Clone()
		for s, lr := range served.LocalRanks {
			seedLocals[s] = lr.Clone()
		}
		servedDoc := served.DocRank.Clone()
		rk = rk2

		start = time.Now()
		full, err := lmm.LayeredDocRank(dg, webCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: churn event %d full: %w", e, err)
		}
		out.FullTotal += time.Since(start)
		out.LocalSolvesFull += dg.NumSites()

		if gap := inc.DocRank.L1Diff(full.DocRank); gap > out.MaxGap {
			out.MaxGap = gap
		}
		if gap := servedDoc.L1Diff(full.DocRank); gap > out.EngineMaxGap {
			out.EngineMaxGap = gap
		}
		prev = inc // chain incremental results, as a live system would
	}
	if out.IncrementalTotal > 0 {
		out.Speedup = float64(out.FullTotal) / float64(out.IncrementalTotal)
	}
	if out.EngineTotal > 0 {
		out.EngineSpeedup = float64(out.FullTotal) / float64(out.EngineTotal)
	}
	return out, nil
}

// Format renders the churn table.
func (r *ChurnResult) Format() string {
	var b strings.Builder
	b.WriteString("Churn — incremental refresh vs full recomputation (P2P site updates)\n\n")
	fmt.Fprintf(&b, "events simulated:        %d (one site's links change per event)\n", r.Events)
	fmt.Fprintf(&b, "incremental total:       %v  (%d local solves)\n",
		r.IncrementalTotal.Round(time.Millisecond), r.LocalSolvesIncremental)
	fmt.Fprintf(&b, "full recompute total:    %v  (%d local solves)\n",
		r.FullTotal.Round(time.Millisecond), r.LocalSolvesFull)
	fmt.Fprintf(&b, "speedup:                 %.1fx\n", r.Speedup)
	fmt.Fprintf(&b, "max L1 gap vs full:      %.2e (incremental results chained event to event)\n", r.MaxGap)
	fmt.Fprintf(&b, "serving rebuild total:   %v  (Ranker.Rebuild + warm-seeded query, the Engine.Update path)\n",
		r.EngineTotal.Round(time.Millisecond))
	fmt.Fprintf(&b, "serving speedup:         %.1fx   max L1 gap vs full: %.2e\n",
		r.EngineSpeedup, r.EngineMaxGap)
	b.WriteString("\n(the layered decomposition localizes each site's change to one local\n solve plus the small warm-started SiteRank)\n")
	return b.String()
}
