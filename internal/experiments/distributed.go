package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"lmmrank/internal/dist/cluster"
	"lmmrank/internal/dist/coordinator"
	"lmmrank/internal/lmm"
	"lmmrank/internal/matrix"
	"lmmrank/internal/webgen"
)

// DistributedPoint is one worker-count measurement of E7.
type DistributedPoint struct {
	Workers int
	// Total is end-to-end wall time of the distributed run; Load,
	// LocalRank and SiteRank break it down.
	Total, Load, LocalRank, SiteRank time.Duration
	// Messages and bytes crossing the coordinator's sockets.
	Messages, BytesSent, BytesReceived uint64
	// Gap is the L1 distance to the single-process reference ranking.
	Gap float64
}

// DistributedResult is experiment E7: scalability and communication
// volume of the distributed Layered Method (§1.2/§3.2 claims).
type DistributedResult struct {
	Docs, Sites int
	// Reference is the single-process wall time for the same web.
	Reference time.Duration
	Points    []DistributedPoint
}

// DistributedOptions parameterizes E7.
type DistributedOptions struct {
	// Web configures the generator (zero = webgen.Default, seed 2005).
	Web webgen.Config
	// WorkerCounts to sweep (nil = 1,2,4,8).
	WorkerCounts []int
	// Tol for all power runs (0 = 1e-9).
	Tol float64
}

// RunDistributed measures the distributed pipeline over loopback TCP for
// each worker count and compares against the in-process reference.
func RunDistributed(opts DistributedOptions) (*DistributedResult, error) {
	if opts.Web.Sites == 0 {
		opts.Web = webgen.Default()
		opts.Web.Seed = 2005
	}
	if len(opts.WorkerCounts) == 0 {
		opts.WorkerCounts = []int{1, 2, 4, 8}
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-9
	}
	web := webgen.Generate(opts.Web)

	start := time.Now()
	ref, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{Tol: opts.Tol})
	if err != nil {
		return nil, fmt.Errorf("experiments: distributed reference: %w", err)
	}
	out := &DistributedResult{
		Docs:      web.Graph.NumDocs(),
		Sites:     web.Graph.NumSites(),
		Reference: time.Since(start),
	}

	for _, n := range opts.WorkerCounts {
		local, err := cluster.StartLocal(n)
		if err != nil {
			return nil, fmt.Errorf("experiments: cluster of %d: %w", n, err)
		}
		t := time.Now()
		rk, err := lmm.NewRanker(web.Graph, lmm.RankerOptions{})
		var res *coordinator.Result
		var site matrix.Vector
		var siteDur time.Duration
		if err == nil {
			res, err = local.Coord.RankPreparedCtx(context.Background(), rk, coordinator.Config{Tol: opts.Tol}, coordinator.Warm{})
		}
		if err == nil {
			siteStart := time.Now()
			site, _, err = rk.RankSites(lmm.WebConfig{Tol: opts.Tol})
			siteDur = time.Since(siteStart)
		}
		total := time.Since(t)
		closeErr := local.Close()
		if err != nil {
			return nil, fmt.Errorf("experiments: rank with %d workers: %w", n, err)
		}
		if closeErr != nil {
			return nil, fmt.Errorf("experiments: closing cluster of %d: %w", n, closeErr)
		}
		out.Points = append(out.Points, DistributedPoint{
			Workers:       n,
			Total:         total,
			Load:          res.Stats.LoadDuration,
			LocalRank:     res.Stats.LocalRankDuration,
			SiteRank:      siteDur,
			Messages:      res.Stats.Messages,
			BytesSent:     res.Stats.BytesSent,
			BytesReceived: res.Stats.BytesReceived,
			Gap:           lmm.ComposeDocRank(web.Graph, site, res.LocalRanks).L1Diff(ref.DocRank),
		})
	}
	return out, nil
}

// Format renders the E7 table.
func (r *DistributedResult) Format() string {
	var b strings.Builder
	b.WriteString("E7 — distributed Layered Method over loopback TCP\n")
	fmt.Fprintf(&b, "web: %d sites, %d documents; single-process reference: %v\n",
		r.Sites, r.Docs, r.Reference.Round(time.Millisecond))
	b.WriteString("\nworkers  total      load       localrank  siterank   msgs    MB out   MB in    L1 vs ref\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-8d %-10v %-10v %-10v %-10v %-7d %-8.2f %-8.2f %.1e\n",
			p.Workers,
			p.Total.Round(time.Millisecond), p.Load.Round(time.Millisecond),
			p.LocalRank.Round(time.Millisecond), p.SiteRank.Round(time.Millisecond),
			p.Messages,
			float64(p.BytesSent)/1e6, float64(p.BytesReceived)/1e6, p.Gap)
	}
	b.WriteString("\n(local DocRanks are computed entirely on the peers — the paper's\n decomposition claim; the small site layer is solved in the driver)\n")
	return b.String()
}
