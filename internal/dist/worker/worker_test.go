package worker

import (
	"math"
	"net"
	"reflect"
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
	}
	for _, tc := range cases {
		if resp := roundTrip(t, enc, dec, &tc.req); resp.Err == "" {
			t.Errorf("%s: worker accepted it", tc.name)
		}
	}

	// The connection must survive all of the above.
	if resp := roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindPing}); resp.Err != "" {
		t.Errorf("ping after malformed requests: %s", resp.Err)
	}
}

// TestSessionDocCapAccumulates asserts the MaxShardDocs memory bound
// holds across a session's successive Load requests, not just within
// one, and that Reset reclaims the budget.
func TestSessionDocCapAccumulates(t *testing.T) {
	w := New()
	addr, err := w.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer w.Close()
	enc, dec, _ := dial(t, addr)

	first := &wire.Request{Kind: wire.KindLoad, NumSites: 3, Shards: []wire.SiteShard{
		{Site: 0, NumDocs: wire.MaxShardDocs},
	}}
	if resp := roundTrip(t, enc, dec, first); resp.Err != "" {
		t.Fatalf("load at the cap: %s", resp.Err)
	}
	over := &wire.Request{Kind: wire.KindLoad, NumSites: 3, Shards: []wire.SiteShard{
		{Site: 1, NumDocs: 1},
	}}
	if resp := roundTrip(t, enc, dec, over); resp.Err == "" {
		t.Error("second load pushed the session past MaxShardDocs and was accepted")
	}
	if resp := roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindReset}); resp.Err != "" {
		t.Fatalf("reset: %s", resp.Err)
	}
	if resp := roundTrip(t, enc, dec, over); resp.Err != "" {
		t.Errorf("load after reset: %s", resp.Err)
	}
}

// TestReloadShrinksSiteSpace re-loads a smaller graph without a Reset:
// stale shards from the larger site space must be dropped, not left to
// index past the new iterate (which would crash the process).
func TestReloadShrinksSiteSpace(t *testing.T) {
	w := New()
	addr, err := w.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer w.Close()
	enc, dec, _ := dial(t, addr)

	big := &wire.Request{Kind: wire.KindLoad, NumSites: 10, Shards: []wire.SiteShard{
		{Site: 9, NumDocs: 1, RowCols: []int{0}, RowVals: []float64{1}},
	}}
	if resp := roundTrip(t, enc, dec, big); resp.Err != "" {
		t.Fatalf("load big: %s", resp.Err)
	}
	small := &wire.Request{Kind: wire.KindLoad, NumSites: 5, Shards: []wire.SiteShard{
		{Site: 0, NumDocs: 1, RowCols: []int{1}, RowVals: []float64{1}},
	}}
	if resp := roundTrip(t, enc, dec, small); resp.Err != "" {
		t.Fatalf("load small: %s", resp.Err)
	}
	resp := roundTrip(t, enc, dec, &wire.Request{
		Kind: wire.KindPowerRound, NumSites: 5, X: []float64{0.2, 0.2, 0.2, 0.2, 0.2},
	})
	if resp.Err != "" {
		t.Fatalf("power round after shrink: %s", resp.Err)
	}
	if len(resp.Partial) != 5 || resp.Partial[1] != 0.2 {
		t.Errorf("partial = %v, want stale site 9 gone and site 0 row applied", resp.Partial)
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
// kind, payloads of every size — the installed shards must rank,
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
		case 5:
			req = &wire.Request{Kind: wire.KindOffer, Refs: make([]wire.ShardRef, 50), HasChain: true}
		case 6:
			req = &wire.Request{Kind: wire.KindUnload, Sites: []int{77, 78, 79}}
		}
		roundTrip(t, enc, dec, req)
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
	sess.clear()
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
