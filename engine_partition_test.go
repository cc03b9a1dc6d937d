package lmmrank

import (
	"context"
	"fmt"
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

// TestDistEnginePartitionStrategiesAgree is the acceptance pin of the
// tentpole: on the blocky web, Host and Aggregate placements agree with
// each other and with the single-process Layered Method < 1e-9, while
// Aggregate cuts ≥ 30% less inter-shard edge weight than Host.
func TestDistEnginePartitionStrategiesAgree(t *testing.T) {
	web := blockyTestWeb()
	ctx := context.Background()
	ref, err := LayeredDocRank(web.Graph, WebConfig{})
	if err != nil {
		t.Fatalf("LayeredDocRank: %v", err)
	}

	cuts := map[string]float64{}
	ranks := map[string]Vector{}
	for _, st := range []PartitionStrategy{HostPartition{}, AggregatePartition{Seed: 1}} {
		cl, err := StartCluster(4)
		if err != nil {
			t.Fatalf("StartCluster: %v", err)
		}
		eng, err := NewDistEngine(cl, web.Graph, DistConfig{Partition: st})
		if err != nil {
			cl.Close()
			t.Fatalf("NewDistEngine(%s): %v", st.Name(), err)
		}
		res, err := eng.Rank(ctx, Query{})
		cl.Close()
		if err != nil {
			t.Fatalf("Rank(%s): %v", st.Name(), err)
		}
		if d := res.DocRank.L1Diff(ref.DocRank); d >= 1e-9 {
			t.Errorf("‖%s − LayeredDocRank‖₁ = %g, want < 1e-9", st.Name(), d)
		}
		if owners := eng.PartitionOwners(); len(owners) != web.Graph.NumSites() {
			t.Errorf("%s: PartitionOwners length %d, want %d", st.Name(), len(owners), web.Graph.NumSites())
		}
		cuts[st.Name()] = res.Dist.CutFraction
		ranks[st.Name()] = res.DocRank
	}
	if d := ranks["aggregate"].L1Diff(ranks["host"]); d >= 1e-9 {
		t.Errorf("‖aggregate − host‖₁ = %g, want < 1e-9", d)
	}
	t.Logf("cut fraction: host %.4f, aggregate %.4f", cuts["host"], cuts["aggregate"])
	if cuts["host"] == 0 {
		t.Fatal("host placement cut nothing; blocky fixture is degenerate")
	}
	if cuts["aggregate"] > 0.7*cuts["host"] {
		t.Errorf("aggregate cut %.4f not ≥30%% below host cut %.4f", cuts["aggregate"], cuts["host"])
	}
}

// repartitionFixture hand-builds a two-block web whose churn makes
// exactly one clean site worth migrating. Sites 0–6 carry 6 documents
// each; block A = {0,1,2} and block B = {3,4,5,6} are internally
// coupled (4 site-graph weight per pair) with one weak A↔B bridge
// (0↔3, weight 2). With 2 workers the capacity is
// ceil(42/2·1.25) = 27 docs, so Aggregate seats A (18 docs) and
// B (24 docs) on separate shards.
func repartitionFixture(t *testing.T) *DocGraph {
	t.Helper()
	b := NewGraphBuilder()
	docs := make([][]DocID, 7)
	for s := range docs {
		host := fmt.Sprintf("site%d.example", s)
		for p := 0; p < 6; p++ {
			docs[s] = append(docs[s], b.AddDocInSite(fmt.Sprintf("http://%s/p%d", host, p), host))
		}
		for p := 0; p < 6; p++ {
			b.LinkIDs(docs[s][p], docs[s][(p+1)%6])
		}
	}
	couple := func(x, y int) {
		for i := 0; i < 2; i++ {
			b.LinkIDs(docs[x][i], docs[y][i])
			b.LinkIDs(docs[y][i], docs[x][i])
		}
	}
	couple(0, 1)
	couple(0, 2)
	couple(1, 2)
	for _, p := range [][2]int{{3, 4}, {3, 5}, {3, 6}, {4, 5}, {4, 6}, {5, 6}} {
		couple(p[0], p[1])
	}
	b.LinkIDs(docs[0][3], docs[3][3])
	b.LinkIDs(docs[3][3], docs[0][3])
	return b.Build()
}

// TestDistEngineOnlineRepartitionMigratesShards drives the online
// repartition end to end: churn couples site 2 (block A) heavily to
// site 4 (block B), drifting the cut fraction past the threshold; the
// engine reruns the strategy, which moves exactly the one clean site
// the capacity allows (site 4 — site 2 cannot fit on B's shard); and
// the migration travels through the digest negotiation, so
// CacheHits stays at least the number of clean shards moved.
func TestDistEngineOnlineRepartitionMigratesShards(t *testing.T) {
	ctx := context.Background()
	for _, threshold := range []float64{0.1, 0} {
		t.Run(fmt.Sprintf("threshold=%g", threshold), func(t *testing.T) {
			dg := repartitionFixture(t)
			ns := dg.NumSites()
			cl, err := StartCluster(2)
			if err != nil {
				t.Fatalf("StartCluster: %v", err)
			}
			defer cl.Close()
			eng, err := NewDistEngine(cl, dg, DistConfig{
				Partition:            AggregatePartition{Seed: 1},
				RepartitionThreshold: threshold,
			})
			if err != nil {
				t.Fatalf("NewDistEngine: %v", err)
			}
			before := eng.PartitionOwners()
			if before[0] == before[3] {
				t.Fatalf("fixture degenerate: blocks A and B share a shard (%v)", before)
			}
			if _, err := eng.Rank(ctx, Query{}); err != nil {
				t.Fatalf("cold Rank: %v", err)
			}

			// Churn: site 2's pages grow heavy links into site 4 — the
			// coupling now straddles the shard boundary.
			err = eng.Update(ctx, GraphDelta{
				ChangedSites: []SiteID{2},
				Apply: func(dg *DocGraph) error {
					a, c := dg.Sites[2].Docs, dg.Sites[4].Docs
					for i := 0; i < 20; i++ {
						dg.G.AddLink(int(a[i%6]), int(c[(i+1)%6]))
					}
					return nil
				},
			})
			if err != nil {
				t.Fatalf("Update: %v", err)
			}

			after := eng.PartitionOwners()
			if threshold <= 0 {
				// Disabled: the placement is carried unchanged and no
				// repartition is counted.
				if eng.Repartitions() != 0 {
					t.Errorf("Repartitions = %d with disabled threshold, want 0", eng.Repartitions())
				}
				for s := range before {
					if after[s] != before[s] {
						t.Errorf("disabled threshold moved site %d: %d → %d", s, before[s], after[s])
					}
				}
				return
			}

			if eng.Repartitions() != 1 {
				t.Fatalf("Repartitions = %d, want 1", eng.Repartitions())
			}
			moved, cleanMoved := 0, 0
			for s := range before {
				if after[s] != before[s] {
					moved++
					if s != 2 {
						cleanMoved++
					}
				}
			}
			if cleanMoved < 1 {
				t.Fatalf("repartition moved no clean site (before %v, after %v)", before, after)
			}
			if after[2] != after[4] {
				t.Errorf("repartition left the new coupling cut: owners %v", after)
			}

			res, err := eng.Rank(ctx, Query{})
			if err != nil {
				t.Fatalf("post-repartition Rank: %v", err)
			}
			// The acceptance pin: migrated clean shards travel through the
			// digest negotiation, so the run reuses at least as many
			// shards as it moved clean — the cache is exploited, not
			// bypassed.
			if res.Dist.CacheHits < cleanMoved {
				t.Errorf("CacheHits = %d < moved clean shards %d", res.Dist.CacheHits, cleanMoved)
			}
			if res.Dist.CacheHits+res.Dist.ShardsReshipped != ns {
				t.Errorf("CacheHits %d + ShardsReshipped %d ≠ %d sites",
					res.Dist.CacheHits, res.Dist.ShardsReshipped, ns)
			}
			// Only the dirty site and the migrated-to-cold-cache shards
			// may re-ship.
			if res.Dist.ShardsReshipped > moved+1 {
				t.Errorf("ShardsReshipped = %d, want ≤ %d (dirty site + moved shards)", res.Dist.ShardsReshipped, moved+1)
			}
			// Update mutated a copy-on-write clone, so the reference needs
			// the same churn applied to a fresh fixture.
			refG := repartitionFixture(t)
			a, c := refG.Sites[2].Docs, refG.Sites[4].Docs
			for i := 0; i < 20; i++ {
				refG.G.AddLink(int(a[i%6]), int(c[(i+1)%6]))
			}
			ref, err := LayeredDocRank(refG, WebConfig{})
			if err != nil {
				t.Fatalf("LayeredDocRank: %v", err)
			}
			if d := res.DocRank.L1Diff(ref.DocRank); d >= 1e-9 {
				t.Errorf("‖post-repartition − LayeredDocRank‖₁ = %g, want < 1e-9", d)
			}
		})
	}
}
