package worker

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"lmmrank/internal/dist/wire"
	"lmmrank/internal/graph"
	"lmmrank/internal/webgen"
)

// loopConn is a connection that reads back what was written to it: a
// frame encoded into one decodes out of it, with no peer and no
// goroutine.
type loopConn struct{ bytes.Buffer }

func (*loopConn) Close() error                     { return nil }
func (*loopConn) LocalAddr() net.Addr              { return nil }
func (*loopConn) RemoteAddr() net.Addr             { return nil }
func (*loopConn) SetDeadline(time.Time) error      { return nil }
func (*loopConn) SetReadDeadline(time.Time) error  { return nil }
func (*loopConn) SetWriteDeadline(time.Time) error { return nil }

// overTheWire encodes req as a frame and decodes it into a fresh Request,
// as a worker receives a Load.
func overTheWire(tb testing.TB, conn *wire.Conn, req *wire.Request) *wire.Request {
	tb.Helper()
	if err := conn.Enc.Encode(req); err != nil {
		tb.Fatalf("encode: %v", err)
	}
	got := new(wire.Request)
	if err := conn.Dec.Decode(got); err != nil {
		tb.Fatalf("decode: %v", err)
	}
	return got
}

// extract is what the coordinator ships for site s: the subgraph's own
// columns.
func extract(dg *graph.DocGraph, s int) (wire.SiteShard, *graph.Digraph) {
	sub, _ := dg.LocalSubgraph(graph.SiteID(s))
	c := sub.Columns()
	return wire.SiteShard{Site: s, Degrees: c.Degrees, Targets: c.Targets, ListedPos: c.ListedPos, ListedW: c.ListedW}, sub
}

// TestShardColumnsCrossBitwise: for every site of the default web, the
// chain a worker builds from the columns it decoded is the coordinator's
// LocalSubgraph(s).TransitionMatrix() bit for bit, and the digest the
// worker recomputes from the received bytes is the coordinator's.
func TestShardColumnsCrossBitwise(t *testing.T) {
	dg := webgen.Generate(webgen.Default()).Graph
	ns := dg.NumSites()
	load := &wire.Request{Kind: wire.KindLoad, NumSites: ns, Shards: make([]wire.SiteShard, ns)}
	subs := make([]*graph.Digraph, ns)
	digests := make([]wire.Digest, ns)
	listed := 0
	for s := range ns {
		load.Shards[s], subs[s] = extract(dg, s)
		digests[s] = load.Shards[s].ContentDigest()
		listed += len(load.Shards[s].ListedPos)
	}
	if listed == 0 {
		t.Fatal("test setup: the web lists no link whose weight is not 1")
	}
	got := overTheWire(t, wire.NewConn(new(loopConn), new(wire.Counters)), load)
	w := New()
	for s := range ns {
		d := &got.Shards[s]
		sub, err := subgraph(d)
		if err != nil {
			t.Fatalf("site %d: %v", s, err)
		}
		if want, have := subs[s].TransitionMatrix(), sub.TransitionMatrix(); !reflect.DeepEqual(want, have) {
			t.Fatalf("site %d: the worker's chain differs from the coordinator's", s)
		}
		e, err := w.buildEntry(d, ns)
		if err != nil {
			t.Fatalf("site %d: %v", s, err)
		}
		if e.digest != digests[s] || e.numDocs != subs[s].NumNodes() {
			t.Fatalf("site %d: the worker keys %d documents under %x, the coordinator offered %d under %x",
				s, e.numDocs, e.digest[:6], subs[s].NumNodes(), digests[s][:6])
		}
	}
}

// TestHostileShardColumns: every way a shard's columns can fail to be a
// deduplicated subgraph is refused by a live worker, naming the fault,
// and leaves the session serving.
func TestHostileShardColumns(t *testing.T) {
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

	// Three documents: 0→1, 0→2 (weight 2), 2→0.
	shard := func(edit func(s *wire.SiteShard)) wire.SiteShard {
		s := wire.SiteShard{Degrees: []uint32{2, 0, 1}, Targets: []uint32{1, 2, 0},
			ListedPos: []uint32{1}, ListedW: []float64{2}}
		edit(&s)
		return s
	}
	weight := func(w float64) wire.SiteShard {
		return shard(func(s *wire.SiteShard) { s.ListedW[0] = w })
	}
	for _, tc := range []struct {
		name    string
		shard   wire.SiteShard
		mention string
	}{
		{"degrees past the targets", shard(func(s *wire.SiteShard) { s.Degrees[1] = 1 }), "out-degrees sum to 4, there are 3 edge targets"},
		{"degrees short of the targets", shard(func(s *wire.SiteShard) { s.Degrees[2] = 0 }), "out-degrees sum to 2, there are 3 edge targets"},
		{"target past the documents", shard(func(s *wire.SiteShard) { s.Targets[2] = 3 }), "edge 2 (2→3) out of range"},
		{"target 2^32-1", shard(func(s *wire.SiteShard) { s.Targets[0] = math.MaxUint32 }), "(0→4294967295) out of range"},
		{"duplicate target", shard(func(s *wire.SiteShard) { s.Targets[1] = 1 }), "edge 1 (0→1) is not past the row's previous target 1"},
		{"descending row", shard(func(s *wire.SiteShard) { s.Targets[0], s.Targets[1] = 2, 1 }), "edge 1 (0→1) is not past the row's previous target 2"},
		{"listed position past the targets", shard(func(s *wire.SiteShard) { s.ListedPos[0] = 3 }), "listed link 0 is edge 3 of 3"},
		{"listed positions repeated", shard(func(s *wire.SiteShard) {
			s.ListedPos, s.ListedW = []uint32{1, 1}, []float64{2, 3}
		}), "listed link 1 is edge 1, not past edge 1"},
		{"listed positions descending", shard(func(s *wire.SiteShard) {
			s.ListedPos, s.ListedW = []uint32{2, 1}, []float64{2, 3}
		}), "listed link 1 is edge 1, not past edge 2"},
		{"a weight short", shard(func(s *wire.SiteShard) { s.ListedW = nil }), "1 listed positions but 0 listed weights"},
		{"listed weight 1", weight(1), "listed edge 1 has invalid weight 1"},
		{"listed weight 0", weight(0), "invalid weight 0"},
		{"listed weight -1", weight(-1), "invalid weight -1"},
		{"listed weight NaN", weight(math.NaN()), "invalid weight NaN"},
		{"listed weight +Inf", weight(math.Inf(1)), "invalid weight +Inf"},
		{"listed weight -Inf", weight(math.Inf(-1)), "invalid weight -Inf"},
		{"finite weights, infinite sum", shard(func(s *wire.SiteShard) {
			s.ListedPos, s.ListedW = []uint32{0, 1}, []float64{math.MaxFloat64, math.MaxFloat64}
		}), "node 0 has out-weight +Inf"},
	} {
		req := &wire.Request{Kind: wire.KindLoad, NumSites: 4, Shards: []wire.SiteShard{tc.shard}}
		if resp := roundTrip(t, enc, dec, req); !strings.Contains(resp.Err, tc.mention) || strings.Contains(resp.Err, "panicked") {
			t.Errorf("%s: err = %q, want a refusal mentioning %q", tc.name, resp.Err, tc.mention)
		}
	}
	// The valid shard loads, and the refused ones left the session serving.
	resp := roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindRankLocal})
	if resp.Err != "" || len(resp.Local) != 4 {
		t.Errorf("after the refusals: err = %q, %d local ranks, want the four loaded sites", resp.Err, len(resp.Local))
	}
	valid := &wire.Request{Kind: wire.KindLoad, NumSites: 4, Shards: []wire.SiteShard{shard(func(*wire.SiteShard) {})}}
	if resp := roundTrip(t, enc, dec, valid); resp.Err != "" {
		t.Errorf("the valid shard: %s", resp.Err)
	}
}

// allocated returns the bytes fn allocates, whatever goroutine does it.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadPastTheDocBoundAllocatesNothing: a Load claiming more documents
// than wire.MaxShardDocs is refused, naming the bound, before any of its
// shards is built — a shard's graph and chain cost several words a
// document, and the bound is there so that a declaration cannot claim
// them. A worker that built each shard before adding up the documents
// allocated hundreds of MB for a load of 2^23 documents before refusing
// it.
func TestLoadPastTheDocBoundAllocatesNothing(t *testing.T) {
	bound := "4194304"
	if wire.MaxShardDocs != 1<<22 {
		t.Fatalf("test setup: MaxShardDocs is %d", wire.MaxShardDocs)
	}
	// 2^23 documents in two shards of 2^22, at the handler.
	column := docs(wire.MaxShardDocs)
	req := &wire.Request{Kind: wire.KindLoad, NumSites: 2, Shards: []wire.SiteShard{
		{Site: 0, Degrees: column}, {Site: 1, Degrees: column},
	}}
	w := New()
	var resp *wire.Response
	if n := allocated(func() { resp = w.safeHandle(&session{}, req) }); n >= 1<<20 {
		t.Errorf("refusing a load of 2^23 documents allocated %d bytes", n)
	}
	if !strings.Contains(resp.Err, bound) || strings.Contains(resp.Err, "panicked") {
		t.Errorf("a load of 2^23 documents: err = %q, want a refusal naming %s", resp.Err, bound)
	}

	// One shard claiming 2^23 documents, and 2^32-1 — the most a column
	// count can spell — in a frame of a few dozen bytes: the frame is
	// refused on its word, by the decoder and by a live worker, which
	// hangs up and keeps serving other connections.
	addr, err := w.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer w.Close()
	small := wire.NewConn(new(loopConn), new(wire.Counters))
	if err := small.Enc.Encode(&wire.Request{Kind: wire.KindLoad, NumSites: 1, Shards: []wire.SiteShard{{Site: 0, Degrees: docs(1)}}}); err != nil {
		t.Fatal(err)
	}
	frame, err := small.Dec.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	// The header, the shard count, site 0, then the document count.
	const docCount = 6 + 1 + 1
	for _, claim := range []uint32{1 << 23, math.MaxUint32} {
		hostile := wire.Frame(bytes.Clone(frame))
		binary.LittleEndian.PutUint32(hostile[docCount:], claim)
		err := hostile.Decode(new(wire.Request))
		if err == nil || !strings.Contains(err.Error(), "exceeds "+bound) {
			t.Errorf("a shard of %d documents: err = %v, want a refusal naming %s", claim, err, bound)
		}
		_, _, conn := dial(t, addr)
		n := allocated(func() {
			if _, err := conn.Write(hostile); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Read(make([]byte, 1)); err == nil {
				t.Errorf("a shard of %d documents: the worker answered", claim)
			}
		})
		if n >= 1<<20 {
			t.Errorf("refusing a shard of %d documents allocated %d bytes", claim, n)
		}
	}
	enc, dec, _ := dial(t, addr)
	if resp := roundTrip(t, enc, dec, &wire.Request{Kind: wire.KindPing}); resp.Err != "" {
		t.Errorf("ping after the hostile frames: %s", resp.Err)
	}
}

// BenchmarkShardLoad is a cold load of every site of the default web,
// from the coordinator's graph to the worker's cache entries: extract
// (the subgraph's columns) and digest, encode, decode, and the worker's
// build — check, digest again, chain. ns/op, B/op and
// allocs/op are one whole web's.
func BenchmarkShardLoad(b *testing.B) {
	dg := webgen.Generate(webgen.Default()).Graph
	dg.Dedupe()
	ns := dg.NumSites()
	conn := wire.NewConn(new(loopConn), new(wire.Counters))
	b.ReportAllocs()
	for b.Loop() {
		load := &wire.Request{Kind: wire.KindLoad, NumSites: ns, Shards: make([]wire.SiteShard, ns)}
		for s := range ns {
			load.Shards[s], _ = extract(dg, s)
			load.Shards[s].ContentDigest()
		}
		got := overTheWire(b, conn, load)
		w := New()
		for s := range got.Shards {
			if _, err := w.buildEntry(&got.Shards[s], ns); err != nil {
				b.Fatal(err)
			}
		}
	}
}
