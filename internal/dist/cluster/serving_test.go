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
	if d := warm.DocRank.L1Diff(cold.DocRank); d != 0 {
		t.Errorf("the warm run's DocRank differs by %g, want bitwise equality", d)
	}

	// A different protocol shape (chain rows inside the shards) is a
	// different payload: the central-mode digests must not be reused —
	// the run re-hashes rather than declare shards lacking their rows.
	dist, err := cl.Coord.RankPreparedCtx(ctx, rk, coordinator.Config{SiteRank: coordinator.SiteRankSync}, coordinator.Warm{Digests: warm.Digests})
	if err != nil {
		t.Fatalf("distributed RankPreparedCtx: %v", err)
	}
	if dist.Stats.DigestBytesHashed == 0 {
		t.Error("protocol-shape change reused the digests — shards would lack their chain rows")
	}
	if d := dist.DocRank.L1Diff(cold.DocRank); d >= 1e-9 {
		t.Errorf("distributed-mode run deviates by %g, want < 1e-9", d)
	}
}

// TestCompressedShardEquivalence is the Config.Compress contract: the
// ranking is bitwise identical with compression on, the stats record a
// real compression win, and the cold-load wire traffic shrinks.
func TestCompressedShardEquivalence(t *testing.T) {
	web := testWeb()

	rank := func(compress bool) *coordinator.Result {
		t.Helper()
		cl, err := StartLocal(2)
		if err != nil {
			t.Fatalf("StartLocal: %v", err)
		}
		defer cl.Close()
		res, err := cl.Coord.Rank(web.Graph, coordinator.Config{Compress: compress})
		if err != nil {
			t.Fatalf("Rank(compress=%v): %v", compress, err)
		}
		return res
	}
	plain := rank(false)
	compressed := rank(true)

	if d := compressed.DocRank.L1Diff(plain.DocRank); d != 0 {
		t.Errorf("compressed run's DocRank differs by %g, want bitwise equality", d)
	}
	if d := compressed.SiteRank.L1Diff(plain.SiteRank); d != 0 {
		t.Errorf("compressed run's SiteRank differs by %g, want bitwise equality", d)
	}
	if plain.Stats.ShardBytesRaw != 0 || plain.Stats.ShardBytesCompressed != 0 {
		t.Errorf("uncompressed run recorded compression stats: %d raw / %d compressed",
			plain.Stats.ShardBytesRaw, plain.Stats.ShardBytesCompressed)
	}
	if compressed.Stats.ShardBytesRaw == 0 {
		t.Fatal("compressed run recorded no raw shard bytes")
	}
	if compressed.Stats.ShardBytesCompressed >= compressed.Stats.ShardBytesRaw {
		t.Errorf("compression grew the payload: %d raw -> %d compressed",
			compressed.Stats.ShardBytesRaw, compressed.Stats.ShardBytesCompressed)
	}
	if compressed.Stats.BytesSent >= plain.Stats.BytesSent {
		t.Errorf("compressed cold load sent %d bytes, uncompressed %d — no wire win",
			compressed.Stats.BytesSent, plain.Stats.BytesSent)
	}
}

// TestDistributedSitePersonalization drives the site-layer teleport
// through the central and the synchronous distributed SiteRank and
// checks each against the single-process personalized pipeline.
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
		{"distributed", coordinator.Config{SitePersonalization: pers, SiteRank: coordinator.SiteRankSync}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			cl, err := StartLocal(3)
			if err != nil {
				t.Fatalf("StartLocal: %v", err)
			}
			defer cl.Close()
			res, err := cl.Coord.Rank(web.Graph, m.cfg)
			if err != nil {
				t.Fatalf("Rank: %v", err)
			}
			if d := res.SiteRank.L1Diff(ref.SiteRank); d >= 1e-9 {
				t.Errorf("‖distributed − reference‖₁ on SiteRank = %g, want < 1e-9", d)
			}
			if d := res.DocRank.L1Diff(ref.DocRank); d >= 1e-9 {
				t.Errorf("‖distributed − reference‖₁ = %g, want < 1e-9", d)
			}
		})
	}

	// Malformed personalization is rejected up front in every mode.
	cl, err := StartLocal(1)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer cl.Close()
	bad := make(matrix.Vector, ns-1)
	for i := range bad {
		bad[i] = 1.0 / float64(ns-1)
	}
	if _, err := cl.Coord.Rank(web.Graph, coordinator.Config{SitePersonalization: bad}); !errors.Is(err, pagerank.ErrBadConfig) {
		t.Errorf("wrong-length personalization: err = %v, want ErrBadConfig", err)
	}
}

// TestDistributedThreeLayer checks the three-layer model over the wire:
// fleet-computed local DocRanks composed under centrally computed
// DomainRank·SiteEntry weights must match the single-process
// LayeredDocRank3, and the incompatible mode combinations fail cleanly.
func TestDistributedThreeLayer(t *testing.T) {
	web := testWeb()
	ref, err := lmm.LayeredDocRank3(web.Graph, nil, lmm.WebConfig{})
	if err != nil {
		t.Fatalf("reference LayeredDocRank3: %v", err)
	}

	cl, err := StartLocal(3)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer cl.Close()
	res, err := cl.Coord.Rank(web.Graph, coordinator.Config{ThreeLayer: true})
	if err != nil {
		t.Fatalf("three-layer Rank: %v", err)
	}
	if d := res.DocRank.L1Diff(ref.DocRank); d >= 1e-9 {
		t.Errorf("‖distributed three-layer − reference‖₁ = %g, want < 1e-9", d)
	}
	if d := res.DomainRank.L1Diff(ref.DomainRank); d >= 1e-9 {
		t.Errorf("‖DomainRank − reference‖₁ = %g, want < 1e-9", d)
	}
	if len(res.Domains) != len(ref.Domains) {
		t.Errorf("domains = %d, want %d", len(res.Domains), len(ref.Domains))
	}
	for s, w := range res.SiteRank {
		want := ref.DomainRank[ref.DomainOfSite[s]] * ref.SiteEntry[s]
		if diff := w - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("site %d weight = %g, want %g", s, w, want)
			break
		}
	}

	if _, err := cl.Coord.Rank(web.Graph, coordinator.Config{ThreeLayer: true, SiteRank: coordinator.SiteRankSync}); !errors.Is(err, pagerank.ErrBadConfig) {
		t.Errorf("ThreeLayer+SiteRankSync: err = %v, want ErrBadConfig", err)
	}
	pers := make(matrix.Vector, web.Graph.NumSites())
	for i := range pers {
		pers[i] = 1.0 / float64(len(pers))
	}
	if _, err := cl.Coord.Rank(web.Graph, coordinator.Config{ThreeLayer: true, SitePersonalization: pers}); !errors.Is(err, pagerank.ErrBadConfig) {
		t.Errorf("ThreeLayer+SitePersonalization: err = %v, want ErrBadConfig", err)
	}
}
