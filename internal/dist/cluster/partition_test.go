package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"lmmrank/internal/dist/coordinator"
	"lmmrank/internal/lmm"
	"lmmrank/internal/webgen"
)

// TestRandomPartitionsArePurePerformanceKnob is the property pin: any
// pinned site→shard assignment — drawn at random, with no regard for
// balance or coupling — reproduces the single-process ranking < 1e-9
// through the cluster. Partition choice can cost performance, never
// correctness. That the run places sites where the pin says is
// coordinator's TestPinnedAssignmentIsHonored.
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
				if d := docRank(web.Graph, res).L1Diff(ref.DocRank); d >= 1e-9 {
					t.Errorf("‖random-assignment − LayeredDocRank‖₁ = %g, want < 1e-9", d)
				}
			})
		}
		cl.Close()
	}
}
