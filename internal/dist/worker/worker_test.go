package worker

import (
	"math"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"lmmrank/internal/dist/wire"
)

// dial opens a raw protocol connection to the worker for direct
// request-level testing.
func dial(t *testing.T, addr string) (*wire.Encoder, *wire.Decoder, net.Conn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { conn.Close() })
	wc := wire.NewConn(conn, new(wire.Counters))
	return &wc.Enc, &wc.Dec, conn
}

// docs is the degree column of n documents without links.
func docs(n int) []uint32 { return make([]uint32, n) }

func roundTrip(t *testing.T, enc *wire.Encoder, dec *wire.Decoder, req *wire.Request) *wire.Response {
	t.Helper()
	if err := enc.Encode(req); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var resp wire.Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &resp
}

func TestStartCloseLifecycle(t *testing.T) {
	w := New()
	if st := w.Stats(); st.Messages != 0 || st.BytesReceived != 0 || st.BytesSent != 0 {
		t.Errorf("fresh worker has nonzero stats: %+v", st)
	}
	addr, err := w.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if _, err := w.Start("127.0.0.1:0"); err == nil {
		t.Error("second Start succeeded")
	}

	enc, dec, _ := dial(t, addr)
	if resp := roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindPing}); resp.Err != "" {
		t.Errorf("ping: %s", resp.Err)
	}
	// The worker counts a response's bytes once its write returns, which
	// may be after the response has reached us.
	st := w.Stats()
	for deadline := time.Now().Add(time.Second); st.BytesSent == 0 && time.Now().Before(deadline); st = w.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st.Messages != 1 || st.BytesReceived == 0 || st.BytesSent == 0 {
		t.Errorf("after one ping: %+v", st)
	}

	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
	if _, err := w.Start("127.0.0.1:0"); err == nil {
		t.Error("Start after Close succeeded")
	}
	if _, err := net.Dial("tcp", addr); err == nil {
		// The listener socket must actually be gone. (A successful
		// dial here would mean Close leaked it.)
		t.Error("worker still accepting after Close")
	}
}

func TestStartBadAddress(t *testing.T) {
	w := New()
	if _, err := w.Start("256.256.256.256:99999"); err == nil {
		t.Error("Start on invalid address succeeded")
	}
	if err := w.Close(); err != nil {
		t.Errorf("Close of never-started worker: %v", err)
	}
}

// TestMalformedRequests exercises worker-side validation: every bad
// request must produce a Response with Err set, never a crash.
func TestMalformedRequests(t *testing.T) {
	w := New()
	addr, err := w.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer w.Close()
	enc, dec, _ := dial(t, addr)

	cases := []struct {
		name string
		req  wire.Request
	}{
		{"unknown kind", wire.Request{Kind: 99}},
		{"shard site out of range", wire.Request{Kind: wire.KindLoad, NumSites: 1,
			Shards: []wire.SiteShard{{Site: 5, Degrees: docs(1)}}}},
		{"edge out of range", wire.Request{Kind: wire.KindLoad, NumSites: 1,
			Shards: []wire.SiteShard{{Site: 0, Degrees: []uint32{1, 0}, Targets: []uint32{9}}}}},
		{"non-positive edge weight", wire.Request{Kind: wire.KindLoad, NumSites: 1,
			Shards: []wire.SiteShard{{Site: 0, Degrees: []uint32{1, 0}, Targets: []uint32{1}, ListedPos: []uint32{0}, ListedW: []float64{-1}}}}},
		{"NaN edge weight", wire.Request{Kind: wire.KindLoad, NumSites: 1,
			Shards: []wire.SiteShard{{Site: 0, Degrees: []uint32{1, 0}, Targets: []uint32{1}, ListedPos: []uint32{0}, ListedW: []float64{math.NaN()}}}}},
		// One document past the bound in all; one shard alone cannot
		// spell it (the frame refuses a column past MaxShardDocs).
		{"absurd doc count", wire.Request{Kind: wire.KindLoad, NumSites: 2,
			Shards: []wire.SiteShard{{Site: 0, Degrees: docs(wire.MaxShardDocs)}, {Site: 1, Degrees: docs(1)}}}},
		// "Exactly this set" has no reading for a site named twice,
		// wherever the two mentions sit and whether or not they resolve.
		{"site twice in Shards", wire.Request{Kind: wire.KindLoad, NumSites: 2,
			Shards: []wire.SiteShard{{Site: 1, Degrees: docs(1)}, {Site: 1, Degrees: docs(2)}}}},
		{"site twice in Cached", wire.Request{Kind: wire.KindLoad, NumSites: 2,
			Cached: []wire.ShardRef{{Site: 1, Digest: wire.Digest{1}}, {Site: 1, Digest: wire.Digest{2}}}}},
		{"site in Shards and in Cached", wire.Request{Kind: wire.KindLoad, NumSites: 2,
			Shards: []wire.SiteShard{{Site: 1, Degrees: docs(1)}},
			Cached: []wire.ShardRef{{Site: 1, Digest: (&wire.SiteShard{Degrees: docs(1)}).ContentDigest()}}}},
	}
	for _, tc := range cases {
		if resp := roundTrip(t, enc, dec, &tc.req); resp.Err == "" {
			t.Errorf("%s: worker accepted it", tc.name)
		}
	}
	// None of the refused loads installed anything.
	if resp := roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindRankLocal}); resp.Err != "" || len(resp.Local) != 0 {
		t.Errorf("after refused loads the session ranks %d sites (err %q), want none", len(resp.Local), resp.Err)
	}

	// On a loaded session, the kinds earlier frame versions spent on the
	// fleet's SiteRank rounds (4), on round batches against a replicated
	// chain (5) and on barrier-free sweeps and their epoch drains (6, 7)
	// are no kinds at all.
	if resp := roundTrip(t, enc, dec, fourSiteLoad()); resp.Err != "" {
		t.Fatalf("load: %s", resp.Err)
	}
	for _, tc := range []struct {
		name    string
		req     wire.Request
		mention string
	}{
		{"retired round kind", wire.Request{Kind: 4, NumSites: 4}, "unknown request kind 4"},
		{"retired batch kind", wire.Request{Kind: 5, NumSites: 4}, "unknown request kind 5"},
		{"retired sweep kind", wire.Request{Kind: 6, NumSites: 4}, "unknown request kind 6"},
		{"retired drain kind", wire.Request{Kind: 7}, "unknown request kind 7"},
	} {
		if resp := roundTrip(t, enc, dec, &tc.req); resp.Err == "" || !strings.Contains(resp.Err, tc.mention) {
			t.Errorf("%s: err = %q, want a refusal mentioning %q", tc.name, resp.Err, tc.mention)
		}
	}
	// The loaded session keeps serving after them.
	if resp := roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindRankLocal}); resp.Err != "" || len(resp.Local) != 4 {
		t.Errorf("rank local after the refusals: err = %q, %d local ranks, want 4", resp.Err, len(resp.Local))
	}

	// The connection must survive all of the above.
	if resp := roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindPing}); resp.Err != "" {
		t.Errorf("ping after malformed requests: %s", resp.Err)
	}
}

// TestDeclarationDocCap asserts the MaxShardDocs memory bound is on the
// aggregate of one declaration — shipped and referenced shards together
// — and, since a declaration is the whole session, on the session: a
// looping client cannot accumulate past it, and what a smaller
// declaration drops is reclaimed. (It replaces TestSessionDocCapAccumulates:
// loads no longer add up, so there is no running total for Reset to
// reclaim.)
func TestDeclarationDocCap(t *testing.T) {
	w := New()
	addr, err := w.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer w.Close()
	enc, dec, _ := dial(t, addr)

	big := wire.SiteShard{Site: 0, Degrees: docs(wire.MaxShardDocs)}
	atCap := &wire.Request{Kind: wire.KindLoad, NumSites: 3, Shards: []wire.SiteShard{big}}
	if resp := roundTrip(t, enc, dec, atCap); resp.Err != "" {
		t.Fatalf("load at the cap: %s", resp.Err)
	}
	// The held shard by reference plus one more document, shipped: over.
	over := &wire.Request{Kind: wire.KindLoad, NumSites: 3,
		Cached: []wire.ShardRef{{Site: 0, Digest: big.ContentDigest()}},
		Shards: []wire.SiteShard{{Site: 1, Degrees: docs(1)}}}
	if resp := roundTrip(t, enc, dec, over); resp.Err == "" {
		t.Error("a declaration past MaxShardDocs in aggregate was accepted")
	}
	// The refused declaration left the session at the cap and serving.
	if resp := roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindRankLocal, Sites: []int{1}}); resp.Err == "" {
		t.Error("the refused declaration installed its shard")
	}
	// Declaring only the small shard drops the big one: its budget is back.
	small := &wire.Request{Kind: wire.KindLoad, NumSites: 3, Shards: []wire.SiteShard{{Site: 1, Degrees: docs(1)}}}
	if resp := roundTrip(t, enc, dec, small); resp.Err != "" {
		t.Errorf("smaller declaration: %s", resp.Err)
	}
	two := &wire.Request{Kind: wire.KindLoad, NumSites: 3, Shards: []wire.SiteShard{
		{Site: 1, Degrees: docs(1)}, {Site: 2, Degrees: docs(wire.MaxShardDocs - 1)}}}
	if resp := roundTrip(t, enc, dec, two); resp.Err != "" {
		t.Errorf("declaration of exactly MaxShardDocs in two shards: %s", resp.Err)
	}
}

// TestReloadShrinksSiteSpace declares a smaller graph after a larger
// one: nothing of the larger site space survives that the new
// declaration does not name, and a held shard named again under its
// digest is kept, not re-shipped.
func TestReloadShrinksSiteSpace(t *testing.T) {
	w := New()
	addr, err := w.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer w.Close()
	enc, dec, _ := dial(t, addr)

	held := wire.SiteShard{Site: 1, Degrees: docs(2)}
	big := &wire.Request{Kind: wire.KindLoad, NumSites: 10, Shards: []wire.SiteShard{
		{Site: 9, Degrees: docs(3)}, held,
	}}
	if resp := roundTrip(t, enc, dec, big); resp.Err != "" {
		t.Fatalf("load big: %s", resp.Err)
	}
	small := &wire.Request{Kind: wire.KindLoad, NumSites: 5,
		Shards: []wire.SiteShard{{Site: 0, Degrees: docs(1)}},
		Cached: []wire.ShardRef{{Site: 1, Digest: held.ContentDigest()}},
	}
	resp := roundTrip(t, enc, dec, small)
	if resp.Err != "" {
		t.Fatalf("load small: %s", resp.Err)
	}
	if len(resp.Missing) != 0 {
		t.Errorf("Missing = %v, want none: the session holds site 1's shard", resp.Missing)
	}
	resp = roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindRankLocal})
	if resp.Err != "" {
		t.Fatalf("rank local after shrink: %s", resp.Err)
	}
	var sizes []int
	for _, lr := range resp.Local {
		sizes = append(sizes, lr.Site, len(lr.Scores))
	}
	if want := []int{0, 1, 1, 2}; !reflect.DeepEqual(sizes, want) {
		t.Errorf("(site, documents) ranked = %v, want %v: stale site 9 gone, sites 0 and 1 held", sizes, want)
	}
}

// TestLoadDeclaresExactlyTheSession is the contract of KindLoad: after
// {0,1,2} then {1,3} the session is exactly {1,3}, its document count
// exact; a site named again under the same digest keeps its cache entry
// — and the chain on it, which is never rebuilt — even after the digest
// cache evicted it; and the same declaration delivered again changes
// nothing.
func TestLoadDeclaresExactlyTheSession(t *testing.T) {
	w := New()
	sess := &session{}
	load := fourSiteLoad()
	three := &wire.Request{Kind: wire.KindLoad, NumSites: 4, Shards: load.Shards[:3]}
	if resp := w.handle(sess, three); resp.Err != "" {
		t.Fatalf("declare {0,1,2}: %s", resp.Err)
	}
	if resp := w.handle(sess, &wire.Request{Kind: wire.KindRankLocal}); resp.Err != "" {
		t.Fatalf("rank: %s", resp.Err)
	}
	kept := sess.shards[1].entry
	if kept.chain == nil {
		t.Fatal("site 1's entry holds no chain")
	}
	chain := kept.chain

	// Evict everything: what a session holds does not depend on the cache.
	w.cache.maxDocs = 0
	w.cache.addShard(entryOfDocs(0xEE, 1))
	if w.cache.lookupShard(kept.digest) != nil {
		t.Fatal("test setup: site 1's entry is still cached")
	}

	ref1 := wire.ShardRef{Site: 1, Digest: load.Shards[1].ContentDigest()}
	next := &wire.Request{Kind: wire.KindLoad, NumSites: 4, Cached: []wire.ShardRef{ref1}, Shards: load.Shards[3:]}
	for attempt := 1; attempt <= 2; attempt++ { // the second is a retransmission
		resp := w.handle(sess, next)
		if resp.Err != "" || len(resp.Missing) != 0 {
			t.Fatalf("declare {1,3} (delivery %d): err=%q missing=%v, want the held ref kept", attempt, resp.Err, resp.Missing)
		}
		if len(sess.shards) != 2 || sess.shards[1] == nil || sess.shards[3] == nil {
			t.Fatalf("delivery %d: session holds %d sites, want exactly {1,3}", attempt, len(sess.shards))
		}
		if want := load.Shards[1].NumDocs() + load.Shards[3].NumDocs(); sess.totalDocs != want {
			t.Errorf("delivery %d: totalDocs = %d, want %d", attempt, sess.totalDocs, want)
		}
		if sess.shards[1].entry != kept || sess.shards[1].entry.chain != chain {
			t.Errorf("delivery %d: site 1's entry or its chain was replaced", attempt)
		}
	}
	// A ref neither the session nor the cache holds is Missing, not kept
	// under another site's entry.
	gone := wire.ShardRef{Site: 0, Digest: load.Shards[0].ContentDigest()}
	resp := w.handle(sess, &wire.Request{Kind: wire.KindLoad, NumSites: 4, Cached: []wire.ShardRef{ref1, gone}})
	if resp.Err != "" || !reflect.DeepEqual(resp.Missing, []int{0}) {
		t.Fatalf("declare {1, dropped 0}: err=%q missing=%v, want [0]", resp.Err, resp.Missing)
	}
	if len(sess.shards) != 1 || sess.shards[1] == nil {
		t.Errorf("session holds %d sites, want exactly {1}", len(sess.shards))
	}
}

// TestRankLocalSingleAndEmptySites covers the degenerate shard sizes
// the in-process pipeline special-cases.
func TestRankLocalSingleAndEmptySites(t *testing.T) {
	w := New()
	addr, err := w.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer w.Close()
	enc, dec, _ := dial(t, addr)

	load := &wire.Request{Kind: wire.KindLoad, NumSites: 3, Shards: []wire.SiteShard{
		{Site: 0, Degrees: docs(1)},
		{Site: 1, Degrees: docs(0)},
		{Site: 2, Degrees: []uint32{1, 1}, Targets: []uint32{1, 0}},
	}}
	if resp := roundTrip(t, enc, dec, load); resp.Err != "" {
		t.Fatalf("load: %s", resp.Err)
	}
	resp := roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindRankLocal})
	if resp.Err != "" {
		t.Fatalf("rank local: %s", resp.Err)
	}
	if len(resp.Local) != 3 {
		t.Fatalf("got %d local ranks, want 3", len(resp.Local))
	}
	bySite := map[int][]float64{}
	for _, lr := range resp.Local {
		bySite[lr.Site] = lr.Scores
	}
	if got := bySite[0]; len(got) != 1 || got[0] != 1 {
		t.Errorf("single-doc site rank = %v, want [1]", got)
	}
	if got := bySite[1]; len(got) != 0 {
		t.Errorf("empty site rank = %v, want []", got)
	}
	if got := bySite[2]; len(got) != 2 {
		t.Errorf("two-doc site rank = %v, want 2 scores", got)
	}
}

// fourSiteLoad is a KindLoad over four sites of local edges, some of
// them listed, for the tests below.
func fourSiteLoad() *wire.Request {
	// Site s is a ring of n documents, link i→i+1 weighing i+1.
	ring := func(site, n int) wire.SiteShard {
		s := wire.SiteShard{Site: site, Degrees: make([]uint32, n), Targets: make([]uint32, n)}
		for i := range n {
			s.Degrees[i], s.Targets[i] = 1, uint32((i+1)%n)
			if i > 0 {
				s.ListedPos, s.ListedW = append(s.ListedPos, uint32(i)), append(s.ListedW, float64(i+1))
			}
		}
		return s
	}
	shards := []wire.SiteShard{ring(0, 3), ring(1, 4), ring(2, 5), ring(3, 2)}
	return &wire.Request{Kind: wire.KindLoad, NumSites: 4, Shards: shards}
}

// TestLoadedShardsSurviveLaterRequests guards the one place decoded
// request memory is retained: the digest cache builds its entries from a
// loaded shard, while every later request on the session is decoded into
// one reused Request. After 100 of them — every kind, payloads of every
// size, refused loads of every sort and re-declarations of what is held
// — the installed shards must rank bit-identically.
func TestLoadedShardsSurviveLaterRequests(t *testing.T) {
	w := New()
	addr, err := w.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer w.Close()
	enc, dec, _ := dial(t, addr)
	if resp := roundTrip(t, enc, dec, fourSiteLoad()); resp.Err != "" {
		t.Fatalf("load: %s", resp.Err)
	}
	probe := func() *wire.Response {
		return roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindRankLocal})
	}
	before := probe()
	if before.Err != "" {
		t.Fatalf("probe: %s", before.Err)
	}
	held := fourSiteLoad()
	refs := make([]wire.ShardRef, len(held.Shards))
	for i := range held.Shards {
		refs[i] = wire.ShardRef{Site: held.Shards[i].Site, Digest: held.Shards[i].ContentDigest()}
	}
	redeclare := func() *wire.Request {
		return &wire.Request{Kind: wire.KindLoad, NumSites: 4, Cached: slices.Clone(refs)}
	}

	for i := 0; i < 100; i++ {
		var req *wire.Request
		switch i % 7 {
		case 6: // refused (a target out of range), but decoded: same shapes, other values
			req = fourSiteLoad()
			for j := range req.Shards {
				for k := range req.Shards[j].Targets {
					req.Shards[j].Targets[k] = 99
				}
			}
		case 0:
			req = &wire.Request{Kind: wire.KindPing}
		case 1: // refused (a retired kind), but decoded: a long site list
			req = &wire.Request{Kind: 4, NumSites: 900, Sites: make([]int, 900)}
		case 2: // refused: an unloaded site
			req = &wire.Request{Kind: wire.KindRankLocal, Sites: []int{3, 77}}
		case 3:
			req = &wire.Request{Kind: wire.KindRankLocal, Sites: []int{2, 0}}
		case 4: // the same session, declared again by reference
			req = redeclare()
		case 5: // refused, each a different way; the session must stay as it is
			req = redeclare()
			switch i % 3 {
			case 0: // a site named twice
				req.Cached = append(req.Cached, refs[2])
			case 1: // a ref outside the site space
				req.Cached[0].Site = 77
			case 2: // a site space no worker admits
				req.NumSites = wire.MaxSites + 1
			}
		}
		resp := roundTrip(t, enc, dec, req)
		if refused := i%7 == 6 || i%7 == 5 || i%7 == 2 || i%7 == 1; refused != (resp.Err != "") {
			t.Fatalf("request %d (kind %d): err = %q, refused should be %v", i, req.Kind, resp.Err, refused)
		}
		if len(resp.Missing) != 0 {
			t.Fatalf("request %d: re-declaring what the session holds reported missing %v", i, resp.Missing)
		}
	}

	if after := probe(); !reflect.DeepEqual(before, after) {
		t.Errorf("the session's local ranks changed after 100 requests on it:\nbefore %+v\nafter  %+v", before, after)
	}
}
