package cluster

import (
	"context"
	"errors"
	"testing"

	"lmmrank/internal/dist/coordinator"
	"lmmrank/internal/lmm"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
)

// TestDigestMemoization pins the carried digests: the cold run hashes
// every shard's content, the warm run over the same Ranker handed the
// cold run's Result.Digests hashes zero bytes — the carried digests, not
// the SHA-256 sweep, answer the cache negotiation — and the results stay
// bitwise equal.
func TestDigestMemoization(t *testing.T) {
	web := testWeb()
	rk, err := lmm.NewRanker(web.Graph, lmm.RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	cl, err := StartLocal(2)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer cl.Close()

	ctx := context.Background()
	cold, err := cl.Coord.RankPreparedCtx(ctx, rk, coordinator.Config{}, coordinator.Warm{})
	if err != nil {
		t.Fatalf("cold RankPreparedCtx: %v", err)
	}
	warm, err := cl.Coord.RankPreparedCtx(ctx, rk, coordinator.Config{}, coordinator.Warm{Digests: cold.Digests})
	if err != nil {
		t.Fatalf("warm RankPreparedCtx: %v", err)
	}
	if cold.Stats.DigestBytesHashed == 0 {
		t.Error("cold run hashed no digest bytes — the accounting is decorative")
	}
	if warm.Stats.DigestBytesHashed != 0 {
		t.Errorf("warm run hashed %d digest bytes, want 0 (carried digests)",
			warm.Stats.DigestBytesHashed)
	}
	if d := docRank(web.Graph, warm).L1Diff(docRank(web.Graph, cold)); d != 0 {
		t.Errorf("the warm run's DocRank differs by %g, want bitwise equality", d)
	}

	// A config naming the retired fleet SiteRank mode ships the same
	// shards: it reuses the digests and gives the same answer.
	dist, err := cl.Coord.RankPreparedCtx(ctx, rk, coordinator.Config{SiteRank: syncIgnored}, coordinator.Warm{Digests: warm.Digests})
	if err != nil {
		t.Fatalf("RankPreparedCtx naming the retired mode: %v", err)
	}
	if dist.Stats.DigestBytesHashed != 0 {
		t.Errorf("a run naming the retired mode hashed %d digest bytes, want 0 (the shards are the same)", dist.Stats.DigestBytesHashed)
	}
	if d := docRank(web.Graph, dist).L1Diff(docRank(web.Graph, cold)); d != 0 {
		t.Errorf("a run naming the retired mode deviates by %g, want bitwise equality", d)
	}
}

// TestDistributedSitePersonalization drives the site-layer teleport
// through a fleet run — also one whose config names the retired fleet
// SiteRank mode, which it ignores — and checks each against the
// single-process personalized pipeline.
func TestDistributedSitePersonalization(t *testing.T) {
	web := testWeb()
	ns := web.Graph.NumSites()
	pers := make(matrix.Vector, ns)
	for s := range pers {
		pers[s] = 1
	}
	pers[3] = 25 // heavily bias one site
	pers.Normalize()

	ref, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{SitePersonalization: pers})
	if err != nil {
		t.Fatalf("reference personalized LayeredDocRank: %v", err)
	}

	modes := []struct {
		name string
		cfg  coordinator.Config
	}{
		{"central", coordinator.Config{SitePersonalization: pers}},
		{"distributed", coordinator.Config{SitePersonalization: pers, SiteRank: syncIgnored}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			cl, err := StartLocal(3)
			if err != nil {
				t.Fatalf("StartLocal: %v", err)
			}
			defer cl.Close()
			res, err := rank(context.Background(), cl, web.Graph, m.cfg)
			if err != nil {
				t.Fatalf("Rank: %v", err)
			}
			if d := res.SiteRank.L1Diff(ref.SiteRank); d >= 1e-9 {
				t.Errorf("‖distributed − reference‖₁ on SiteRank = %g, want < 1e-9", d)
			}
			if d := docRank(web.Graph, res).L1Diff(ref.DocRank); d >= 1e-9 {
				t.Errorf("‖distributed − reference‖₁ = %g, want < 1e-9", d)
			}
		})
	}

	// Malformed personalization is rejected up front.
	cl, err := StartLocal(1)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer cl.Close()
	bad := make(matrix.Vector, ns-1)
	for i := range bad {
		bad[i] = 1.0 / float64(ns-1)
	}
	if _, err := rank(context.Background(), cl, web.Graph, coordinator.Config{SitePersonalization: bad}); !errors.Is(err, pagerank.ErrBadConfig) {
		t.Errorf("wrong-length personalization: err = %v, want ErrBadConfig", err)
	}
}
