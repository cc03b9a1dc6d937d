package lmmrank

import (
	"context"
	"math/rand"
	"testing"
)

// blockyTestWeb is a planted-block web where hostname-order placement
// scatters every coupling block.
func blockyTestWeb() *CampusWeb {
	return GenerateCampusWeb(CampusWebConfig{
		Seed:              13,
		Blocky:            true,
		Sites:             32,
		Blocks:            8,
		MeanSitePages:     10,
		IntraLinksPerPage: 2,
		InterLinkFraction: 0.3,
	})
}

// TestDistEnginePartitionStrategiesAgree: on the blocky web, the default
// weighted-LPT placement, a hostname-order round-robin pin and a random
// pin agree with each other and with the single-process Layered Method
// < 1e-9, and cost the same messages and bytes, cold and warm — no
// message carries a link between workers, so which sites share a worker
// changes no byte on the wire.
func TestDistEnginePartitionStrategiesAgree(t *testing.T) {
	web := blockyTestWeb()
	ctx := context.Background()
	ref, err := LayeredDocRank(web.Graph, WebConfig{})
	if err != nil {
		t.Fatalf("LayeredDocRank: %v", err)
	}
	const workers = 4
	ns := web.Graph.NumSites()
	roundRobin, random := make([]int, ns), make([]int, ns)
	rng := rand.New(rand.NewSource(5))
	for s := range roundRobin {
		roundRobin[s] = s % workers
		random[s] = rng.Intn(workers)
	}
	type cost struct{ msgs, out, in uint64 }
	for _, m := range distModes {
		t.Run(m.name, func(t *testing.T) {
			var first [2]cost
			var firstRank Vector
			for i, pin := range []struct {
				name string
				asg  []int
			}{{"lpt", nil}, {"round-robin", roundRobin}, {"random", random}} {
				cl, err := StartCluster(workers)
				if err != nil {
					t.Fatalf("StartCluster: %v", err)
				}
				cfg := m.cfg
				cfg.Assignment = pin.asg
				eng, err := NewDistEngine(cl, web.Graph, cfg)
				if err != nil {
					cl.Close()
					t.Fatalf("NewDistEngine(%s): %v", pin.name, err)
				}
				var costs [2]cost
				var res *Result
				for run := range costs {
					if res, err = eng.Rank(ctx, Query{}); err != nil {
						cl.Close()
						t.Fatalf("Rank(%s) #%d: %v", pin.name, run+1, err)
					}
					costs[run] = cost{res.Dist.Messages, res.Dist.BytesSent, res.Dist.BytesReceived}
				}
				cl.Close()
				if d := res.DocRank.L1Diff(ref.DocRank); d >= 1e-9 {
					t.Errorf("‖%s − LayeredDocRank‖₁ = %g, want < 1e-9", pin.name, d)
				}
				t.Logf("%s: cold %+v, warm %+v", pin.name, costs[0], costs[1])
				if i == 0 {
					first, firstRank = costs, res.DocRank
					continue
				}
				if d := res.DocRank.L1Diff(firstRank); d >= 1e-9 {
					t.Errorf("‖%s − lpt‖₁ = %g, want < 1e-9", pin.name, d)
				}
				if costs != first {
					t.Errorf("%s costs cold %+v, warm %+v; lpt costs cold %+v, warm %+v", pin.name, costs[0], costs[1], first[0], first[1])
				}
			}
		})
	}
}
