package wire

import (
	"net"
	"sync"
	"testing"
)

// TestConnCountsBothDirections pushes a request/response pair through a
// real socket pair and checks every byte lands in the right counter on
// both endpoints.
func TestConnCountsBothDirections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()

	var serverCtr Counters
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		wc := NewConn(conn, &serverCtr)
		defer wc.Close()
		var req Request
		if err := wc.Dec.Decode(&req); err != nil {
			t.Errorf("server decode: %v", err)
			return
		}
		serverCtr.AddMessage()
		if err := wc.Enc.Encode(&Response{Partial: req.X}); err != nil {
			t.Errorf("server encode: %v", err)
		}
	}()

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	var clientCtr Counters
	cc := NewConn(raw, &clientCtr)
	defer cc.Close()

	req := &Request{Kind: KindPowerRound, NumSites: 3, X: []float64{0.2, 0.3, 0.5}}
	if err := cc.Enc.Encode(req); err != nil {
		t.Fatalf("client encode: %v", err)
	}
	var resp Response
	if err := cc.Dec.Decode(&resp); err != nil {
		t.Fatalf("client decode: %v", err)
	}
	clientCtr.AddMessage()
	wg.Wait()

	if len(resp.Partial) != 3 || resp.Partial[2] != 0.5 {
		t.Errorf("echoed payload corrupted: %v", resp.Partial)
	}
	if clientCtr.Messages() != 1 || serverCtr.Messages() != 1 {
		t.Errorf("messages: client %d server %d, want 1 and 1", clientCtr.Messages(), serverCtr.Messages())
	}
	if clientCtr.BytesSent() == 0 || clientCtr.BytesReceived() == 0 {
		t.Errorf("client counters empty: %d out, %d in", clientCtr.BytesSent(), clientCtr.BytesReceived())
	}
	if clientCtr.BytesSent() != serverCtr.BytesReceived() {
		t.Errorf("client sent %d but server received %d", clientCtr.BytesSent(), serverCtr.BytesReceived())
	}
	if serverCtr.BytesSent() != clientCtr.BytesReceived() {
		t.Errorf("server sent %d but client received %d", serverCtr.BytesSent(), clientCtr.BytesReceived())
	}
}

// TestContentDigestStability pins that digests are pure functions of
// content: equal shards agree, any field change disagrees — the
// property the worker-side cache keys on.
func TestContentDigestStability(t *testing.T) {
	base := func() SiteShard {
		return SiteShard{
			Site: 3, NumDocs: 2,
			Edges:   []Edge{{From: 0, To: 1, Weight: 2}},
			RowCols: []int{1}, RowVals: []float64{1},
		}
	}
	a, b := base(), base()
	if a.ContentDigest() != b.ContentDigest() {
		t.Fatal("identical shards produced different digests")
	}
	// The site ID is addressing, not content: the same subgraph hosted
	// under two IDs must share a cache entry.
	b.Site = 9
	if a.ContentDigest() != b.ContentDigest() {
		t.Error("digest depends on the site ID")
	}
	mutations := []func(*SiteShard){
		func(s *SiteShard) { s.NumDocs = 3 },
		func(s *SiteShard) { s.Edges[0].Weight = 1 },
		func(s *SiteShard) { s.Edges = append(s.Edges, Edge{From: 1, To: 0, Weight: 1}) },
		func(s *SiteShard) { s.RowCols[0] = 0 },
		func(s *SiteShard) { s.RowVals[0] = 0.5 },
		func(s *SiteShard) { s.RowCols, s.RowVals = nil, nil },
	}
	for i, mutate := range mutations {
		m := base()
		mutate(&m)
		if m.ContentDigest() == a.ContentDigest() {
			t.Errorf("mutation %d did not change the digest", i)
		}
	}
}

func TestChainDigestAndSize(t *testing.T) {
	c1 := SiteChain{NumSites: 2, RowPtr: []int{0, 1, 1}, Cols: []int{1}, Vals: []float64{1}}
	c2 := SiteChain{NumSites: 2, RowPtr: []int{0, 1, 1}, Cols: []int{1}, Vals: []float64{1}}
	if c1.ContentDigest() != c2.ContentDigest() {
		t.Error("identical chains produced different digests")
	}
	c2.Vals[0] = 0.5
	if c1.ContentDigest() == c2.ContentDigest() {
		t.Error("value change did not change the chain digest")
	}
	if c1.WireSize() == 0 || (&SiteShard{}).WireSize() == 0 {
		t.Error("wire-size estimates must be positive (headers are not free)")
	}
}
