package cluster

import (
	"context"
	"testing"

	"lmmrank/internal/dist/coordinator"
	"lmmrank/internal/lmm"
	"lmmrank/internal/matrix"
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
}

// TestDistributedSitePersonalization composes a fleet run's local
// DocRanks under a site-personalized πS and checks them against the
// single-process personalized pipeline: a local DocRank does not depend
// on the site layer's teleport (Partition Theorem), so the caller's site
// solve is all a personalization adds.
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

	t.Run("central", func(t *testing.T) {
		cl, err := StartLocal(3)
		if err != nil {
			t.Fatalf("StartLocal: %v", err)
		}
		defer cl.Close()
		res, err := rank(context.Background(), cl, web.Graph, coordinator.Config{})
		if err != nil {
			t.Fatalf("Rank: %v", err)
		}
		got := composeUnder(web.Graph, lmm.WebConfig{SitePersonalization: pers}, res)
		if d := got.L1Diff(ref.DocRank); d >= 1e-9 {
			t.Errorf("‖distributed − reference‖₁ = %g, want < 1e-9", d)
		}
		if d := got.L1Diff(docRank(web.Graph, res)); d < 1e-6 {
			t.Errorf("the personalized answer is within %g of the uniform one: the bias moved nothing", d)
		}
	})
}
