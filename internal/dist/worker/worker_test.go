package worker

import (
	"math"
	"net"
	"reflect"
	"slices"
	"testing"

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
	st := w.Stats()
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
			Shards: []wire.SiteShard{{Site: 5, NumDocs: 1}}}},
		{"edge out of range", wire.Request{Kind: wire.KindLoad, NumSites: 1,
			Shards: []wire.SiteShard{{Site: 0, NumDocs: 2, Edges: []wire.Edge{{From: 0, To: 9, Weight: 1}}}}}},
		{"non-positive edge weight", wire.Request{Kind: wire.KindLoad, NumSites: 1,
			Shards: []wire.SiteShard{{Site: 0, NumDocs: 2, Edges: []wire.Edge{{From: 0, To: 1, Weight: -1}}}}}},
		{"NaN edge weight", wire.Request{Kind: wire.KindLoad, NumSites: 1,
			Shards: []wire.SiteShard{{Site: 0, NumDocs: 2, Edges: []wire.Edge{{From: 0, To: 1, Weight: math.NaN()}}}}}},
		{"NaN row value", wire.Request{Kind: wire.KindLoad, NumSites: 1,
			Shards: []wire.SiteShard{{Site: 0, NumDocs: 1, RowCols: []int{0}, RowVals: []float64{math.NaN()}}}}},
		{"row arity mismatch", wire.Request{Kind: wire.KindLoad, NumSites: 1,
			Shards: []wire.SiteShard{{Site: 0, NumDocs: 1, RowCols: []int{0}, RowVals: nil}}}},
		{"row column out of range", wire.Request{Kind: wire.KindLoad, NumSites: 1,
			Shards: []wire.SiteShard{{Site: 0, NumDocs: 1, RowCols: []int{5}, RowVals: []float64{1}}}}},
		{"power round before load", wire.Request{Kind: wire.KindPowerRound, NumSites: 3, X: []float64{1, 0, 0}}},
		{"absurd doc count", wire.Request{Kind: wire.KindLoad, NumSites: 1,
			Shards: []wire.SiteShard{{Site: 0, NumDocs: 1 << 62}}}},
		// "Exactly this set" has no reading for a site named twice,
		// wherever the two mentions sit and whether or not they resolve.
		{"site twice in Shards", wire.Request{Kind: wire.KindLoad, NumSites: 2,
			Shards: []wire.SiteShard{{Site: 1, NumDocs: 1}, {Site: 1, NumDocs: 2}}}},
		{"site twice in Cached", wire.Request{Kind: wire.KindLoad, NumSites: 2,
			Cached: []wire.ShardRef{{Site: 1, Digest: wire.Digest{1}}, {Site: 1, Digest: wire.Digest{2}}}}},
		{"site in Shards and in Cached", wire.Request{Kind: wire.KindLoad, NumSites: 2,
			Shards: []wire.SiteShard{{Site: 1, NumDocs: 1}},
			Cached: []wire.ShardRef{{Site: 1, Digest: (&wire.SiteShard{NumDocs: 1}).ContentDigest()}}}},
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

	big := wire.SiteShard{Site: 0, NumDocs: wire.MaxShardDocs}
	atCap := &wire.Request{Kind: wire.KindLoad, NumSites: 3, Shards: []wire.SiteShard{big}}
	if resp := roundTrip(t, enc, dec, atCap); resp.Err != "" {
		t.Fatalf("load at the cap: %s", resp.Err)
	}
	// The held shard by reference plus one more document, shipped: over.
	over := &wire.Request{Kind: wire.KindLoad, NumSites: 3,
		Cached: []wire.ShardRef{{Site: 0, Digest: big.ContentDigest()}},
		Shards: []wire.SiteShard{{Site: 1, NumDocs: 1}}}
	if resp := roundTrip(t, enc, dec, over); resp.Err == "" {
		t.Error("a declaration past MaxShardDocs in aggregate was accepted")
	}
	// The refused declaration left the session at the cap and serving.
	if resp := roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindRankLocal, Sites: []int{1}}); resp.Err == "" {
		t.Error("the refused declaration installed its shard")
	}
	// Declaring only the small shard drops the big one: its budget is back.
	small := &wire.Request{Kind: wire.KindLoad, NumSites: 3, Shards: []wire.SiteShard{{Site: 1, NumDocs: 1}}}
	if resp := roundTrip(t, enc, dec, small); resp.Err != "" {
		t.Errorf("smaller declaration: %s", resp.Err)
	}
	two := &wire.Request{Kind: wire.KindLoad, NumSites: 3, Shards: []wire.SiteShard{
		{Site: 1, NumDocs: 1}, {Site: 2, NumDocs: wire.MaxShardDocs - 1}}}
	if resp := roundTrip(t, enc, dec, two); resp.Err != "" {
		t.Errorf("declaration of exactly MaxShardDocs in two shards: %s", resp.Err)
	}
}

// TestReloadShrinksSiteSpace declares a smaller graph after
// a larger one: nothing of the larger site space may survive to index
// past the new iterate (which would crash the process) — not a site the
// new declaration does not name, and not a held shard named again whose
// row points past the new dimension.
func TestReloadShrinksSiteSpace(t *testing.T) {
	w := New()
	addr, err := w.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer w.Close()
	enc, dec, _ := dial(t, addr)

	wide := wire.SiteShard{Site: 1, NumDocs: 1, RowCols: []int{8}, RowVals: []float64{1}}
	big := &wire.Request{Kind: wire.KindLoad, NumSites: 10, Shards: []wire.SiteShard{
		{Site: 9, NumDocs: 1, RowCols: []int{0}, RowVals: []float64{1}}, wide,
	}}
	if resp := roundTrip(t, enc, dec, big); resp.Err != "" {
		t.Fatalf("load big: %s", resp.Err)
	}
	small := &wire.Request{Kind: wire.KindLoad, NumSites: 5,
		Shards: []wire.SiteShard{{Site: 0, NumDocs: 1, RowCols: []int{1}, RowVals: []float64{1}}},
		Cached: []wire.ShardRef{{Site: 1, Digest: wide.ContentDigest()}},
	}
	resp := roundTrip(t, enc, dec, small)
	if resp.Err != "" {
		t.Fatalf("load small: %s", resp.Err)
	}
	if !reflect.DeepEqual(resp.Missing, []int{1}) {
		t.Errorf("Missing = %v, want [1]: the held shard's row points past the new site space", resp.Missing)
	}
	resp = roundTrip(t, enc, dec, &wire.Request{
		Kind: wire.KindPowerRound, NumSites: 5, X: []float64{0.2, 0.2, 0.2, 0.2, 0.2},
	})
	if resp.Err != "" {
		t.Fatalf("power round after shrink: %s", resp.Err)
	}
	if want := []float64{0, 0.2, 0, 0, 0}; !reflect.DeepEqual(resp.Partial, want) {
		t.Errorf("partial = %v, want %v: stale sites 9 and 1 gone, site 0's row applied", resp.Partial, want)
	}
}

// TestLoadDeclaresExactlyTheSession is the contract of KindLoad: after
// {0,1,2} then {1,3} the session is exactly {1,3}, its document count
// exact; a site named again under the same digest keeps its cache entry
// — and the warm solver on it — even after the digest cache evicted it;
// and the same declaration delivered again changes nothing.
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
	if kept.solver == nil {
		t.Fatal("ranking built no solver on site 1's entry")
	}
	solver := kept.solver

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
		if want := load.Shards[1].NumDocs + load.Shards[3].NumDocs; sess.totalDocs != want {
			t.Errorf("delivery %d: totalDocs = %d, want %d", attempt, sess.totalDocs, want)
		}
		if sess.shards[1].entry != kept || kept.solver != solver {
			t.Errorf("delivery %d: site 1's entry or warm solver was replaced", attempt)
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

// TestPowerRoundMath checks one round against hand-computed partials:
// two sites where site 0 links to site 1 with probability 1 and site 1
// is dangling.
func TestPowerRoundMath(t *testing.T) {
	w := New()
	addr, err := w.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer w.Close()
	enc, dec, _ := dial(t, addr)

	load := &wire.Request{Kind: wire.KindLoad, NumSites: 2, Shards: []wire.SiteShard{
		{Site: 0, NumDocs: 1, RowCols: []int{1}, RowVals: []float64{1}},
		{Site: 1, NumDocs: 1}, // dangling site row
	}}
	if resp := roundTrip(t, enc, dec, load); resp.Err != "" {
		t.Fatalf("load: %s", resp.Err)
	}
	resp := roundTrip(t, enc, dec, &wire.Request{
		Kind: wire.KindPowerRound, NumSites: 2, X: []float64{0.25, 0.75},
	})
	if resp.Err != "" {
		t.Fatalf("power round: %s", resp.Err)
	}
	if got := resp.Partial; len(got) != 2 || got[0] != 0 || got[1] != 0.25 {
		t.Errorf("partial = %v, want [0 0.25]", got)
	}
	if resp.DanglingMass != 0.75 {
		t.Errorf("dangling mass = %g, want 0.75", resp.DanglingMass)
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
		{Site: 0, NumDocs: 1},
		{Site: 1, NumDocs: 0},
		{Site: 2, NumDocs: 2, Edges: []wire.Edge{{From: 0, To: 1, Weight: 1}, {From: 1, To: 0, Weight: 1}}},
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

// fourSiteLoad is a KindLoad over four sites — rows, local edges, a
// dangling site and the replicated chain — for the tests below.
func fourSiteLoad() *wire.Request {
	ring := func(n int) []wire.Edge {
		edges := make([]wire.Edge, n)
		for i := range edges {
			edges[i] = wire.Edge{From: i, To: (i + 1) % n, Weight: float64(i + 1)}
		}
		return edges
	}
	return &wire.Request{Kind: wire.KindLoad, NumSites: 4,
		Shards: []wire.SiteShard{
			{Site: 0, NumDocs: 3, Edges: ring(3), RowCols: []int{1, 2}, RowVals: []float64{0.5, 0.5}},
			{Site: 1, NumDocs: 4, Edges: ring(4), RowCols: []int{0}, RowVals: []float64{1}},
			{Site: 2, NumDocs: 5, Edges: ring(5), RowCols: []int{0, 3}, RowVals: []float64{0.75, 0.25}},
			{Site: 3, NumDocs: 2, Edges: ring(2)},
		},
		Chain: &wire.SiteChain{NumSites: 4, RowPtr: []int{0, 2, 3, 5, 5},
			Cols: []int{1, 2, 0, 0, 3}, Vals: []float64{0.5, 0.5, 1, 0.75, 0.25}},
	}
}

// TestLoadedShardsSurviveLaterRequests guards the one place decoded
// request memory is retained: the digest cache aliases a loaded shard's
// chain row and the session its chain, while every later request on the
// session is decoded into one reused Request. After 100 of them — every
// kind, payloads of every size, refused loads of every sort and
// re-declarations of what is held — the installed shards must rank,
// power-round and batch bit-identically.
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
	x := []float64{0.1, 0.2, 0.3, 0.4}
	probe := func() [3]*wire.Response {
		return [3]*wire.Response{
			roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindRankLocal}),
			roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindPowerRound, NumSites: 4, X: x}),
			roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindBatchRounds, NumSites: 4, X: x, Rounds: 3}),
		}
	}
	before := probe()
	for _, r := range before {
		if r.Err != "" {
			t.Fatalf("probe: %s", r.Err)
		}
	}
	held := fourSiteLoad()
	refs := make([]wire.ShardRef, len(held.Shards))
	for i := range held.Shards {
		refs[i] = wire.ShardRef{Site: held.Shards[i].Site, Digest: held.Shards[i].ContentDigest()}
	}
	redeclare := func() *wire.Request {
		return &wire.Request{Kind: wire.KindLoad, NumSites: 4, Cached: slices.Clone(refs),
			HasChain: true, ChainDigest: held.Chain.ContentDigest()}
	}

	junk := func(n int, v float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	for i := 0; i < 100; i++ {
		var req *wire.Request
		switch i % 8 {
		case 7: // refused (rows do not sum to 1), but decoded: same shapes, other values
			req = fourSiteLoad()
			for j := range req.Shards {
				for k := range req.Shards[j].RowVals {
					req.Shards[j].RowCols[k], req.Shards[j].RowVals[k] = 3, 0.9
				}
			}
		case 0:
			req = &wire.Request{Kind: wire.KindPowerRound, NumSites: 4, X: junk(4, float64(i))}
		case 1: // refused (wrong dimension), but decoded: a long iterate
			req = &wire.Request{Kind: wire.KindPowerRound, NumSites: 900, X: junk(900, -1)}
		case 2:
			req = &wire.Request{Kind: wire.KindAsyncUpdate, NumSites: 4, X: junk(4, 0.25), Epoch: uint64(i)}
		case 3:
			req = &wire.Request{Kind: wire.KindBatchRounds, NumSites: 4, X: junk(4, 0.25), V: junk(4, 7), Rounds: 2}
		case 4:
			req = &wire.Request{Kind: wire.KindRankLocal, Sites: []int{2, 0}}
		case 5: // the same session, declared again by reference
			req = redeclare()
		case 6: // refused, each a different way; the session must stay as it is
			req = redeclare()
			switch i % 3 {
			case 0: // a site named twice
				req.Cached = append(req.Cached, refs[2])
			case 1: // a ref outside the site space
				req.Cached[0].Site = 77
			case 2: // a malformed chain beside valid refs
				req.Chain = &wire.SiteChain{NumSites: 4, RowPtr: []int{0}}
			}
		}
		resp := roundTrip(t, enc, dec, req)
		if refused := i%8 == 7 || i%8 == 6 || i%8 == 1; refused != (resp.Err != "") {
			t.Fatalf("request %d (kind %d): err = %q, refused should be %v", i, req.Kind, resp.Err, refused)
		}
		if len(resp.Missing) != 0 || resp.MissingChain {
			t.Fatalf("request %d: re-declaring what the session holds reported missing %v (chain %v)", i, resp.Missing, resp.MissingChain)
		}
	}

	after := probe()
	for i := range before {
		if !reflect.DeepEqual(before[i], after[i]) {
			t.Errorf("probe %d changed after 100 requests on the session:\nbefore %+v\nafter  %+v", i, before[i], after[i])
		}
	}
}

// TestRoundHandlersAllocateNothing pins the worker's half of the
// zero-allocation exchange: once the session scratch has seen one
// round, the per-round handlers answer without allocating.
func TestRoundHandlersAllocateNothing(t *testing.T) {
	w := New()
	sess := &session{}
	if resp := w.handle(sess, fourSiteLoad()); resp.Err != "" {
		t.Fatalf("load: %s", resp.Err)
	}
	x := []float64{0.1, 0.2, 0.3, 0.4}
	for _, req := range []*wire.Request{
		{Kind: wire.KindPowerRound, NumSites: 4, X: x},
		{Kind: wire.KindAsyncUpdate, NumSites: 4, X: x, Epoch: 1},
		{Kind: wire.KindBatchRounds, NumSites: 4, X: x, V: []float64{1, 1, 1, 1}, Rounds: 4},
		{Kind: wire.KindAsyncAck, Epoch: 1},
	} {
		var resp *wire.Response
		allocs := testing.AllocsPerRun(50, func() {
			x[0], x[1], x[2], x[3] = 0.1, 0.2, 0.3, 0.4 // batch rounds iterate in place
			resp = w.safeHandle(sess, req)
		})
		if resp.Err != "" {
			t.Fatalf("kind %d: %s", req.Kind, resp.Err)
		}
		if allocs != 0 {
			t.Errorf("kind %d handler allocates %v times per request, want 0", req.Kind, allocs)
		}
	}
}
