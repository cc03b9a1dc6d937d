package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"lmmrank/internal/dist/coordinator"
	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/partition"
	"lmmrank/internal/webgen"
)

// TestPartitionStrategiesAgreeOverTheWire runs every placement strategy
// through the cluster: by the Partition Theorem each must reproduce the
// single-process Layered Method < 1e-9, and every run must report its
// cut-edge quality.
func TestPartitionStrategiesAgreeOverTheWire(t *testing.T) {
	web := webgen.Generate(webgen.Config{
		Seed:              23,
		Blocky:            true,
		Sites:             24,
		Blocks:            6,
		MeanSitePages:     10,
		IntraLinksPerPage: 2,
		InterLinkFraction: 0.3,
	})
	ref, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{})
	if err != nil {
		t.Fatalf("reference LayeredDocRank: %v", err)
	}
	cl, err := StartLocal(3)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer cl.Close()

	for _, st := range []partition.Strategy{partition.Host{}, partition.Balanced{}, partition.Aggregate{Seed: 4}} {
		t.Run(st.Name(), func(t *testing.T) {
			rk, err := lmm.NewRanker(web.Graph, lmm.RankerOptions{})
			if err != nil {
				t.Fatalf("NewRanker: %v", err)
			}
			res, err := cl.Coord.RankPreparedCtx(context.Background(), rk, coordinator.Config{Partition: st}, coordinator.Warm{})
			if err != nil {
				t.Fatalf("RankPreparedCtx: %v", err)
			}
			if d := res.DocRank.L1Diff(ref.DocRank); d >= 1e-9 {
				t.Errorf("‖%s − LayeredDocRank‖₁ = %g, want < 1e-9", st.Name(), d)
			}
			if res.Stats.CutEdges == 0 || res.Stats.CutFraction == 0 || res.Stats.CrossShardBytes == 0 {
				t.Errorf("cut stats are decorative: CutEdges=%g CutFraction=%g CrossShardBytes=%d",
					res.Stats.CutEdges, res.Stats.CutFraction, res.Stats.CrossShardBytes)
			}
		})
	}
}

// TestRandomPartitionsArePurePerformanceKnob is the property pin: any
// pinned site→shard assignment — drawn at random, with no regard for
// balance or coupling — reproduces the single-process ranking < 1e-9
// through the cluster. Partition choice can cost performance, never
// correctness.
func TestRandomPartitionsArePurePerformanceKnob(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, webSeed := range []int64{3, 1729} {
		web := webgen.Generate(webgen.Config{
			Seed:          webSeed,
			Sites:         12,
			MeanSitePages: 8,
		})
		ref, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{})
		if err != nil {
			t.Fatalf("reference LayeredDocRank: %v", err)
		}
		cl, err := StartLocal(3)
		if err != nil {
			t.Fatalf("StartLocal: %v", err)
		}
		ns := web.Graph.NumSites()
		for trial := 0; trial < 3; trial++ {
			owners := make([]int, ns)
			for s := range owners {
				owners[s] = rng.Intn(3)
			}
			t.Run(fmt.Sprintf("web%d/trial%d", webSeed, trial), func(t *testing.T) {
				rk, err := lmm.NewRanker(web.Graph, lmm.RankerOptions{})
				if err != nil {
					t.Fatalf("NewRanker: %v", err)
				}
				res, err := cl.Coord.RankPreparedCtx(context.Background(), rk, coordinator.Config{Assignment: owners}, coordinator.Warm{})
				if err != nil {
					t.Fatalf("RankPreparedCtx: %v", err)
				}
				if d := res.DocRank.L1Diff(ref.DocRank); d >= 1e-9 {
					t.Errorf("‖random-assignment − LayeredDocRank‖₁ = %g, want < 1e-9", d)
				}
				// The run must actually honor the pinned placement: its
				// cut matches the assignment's, computed independently.
				sg := graph.DeriveSiteGraph(web.Graph, graph.SiteGraphOptions{})
				if want := partition.CutFraction(sg, owners); res.Stats.CutFraction != want {
					t.Errorf("CutFraction = %g, want %g (assignment not honored)", res.Stats.CutFraction, want)
				}
			})
		}
		cl.Close()
	}
}
