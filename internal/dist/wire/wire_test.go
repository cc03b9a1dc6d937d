package wire

import (
	"encoding/hex"
	"net"
	"sync"
	"testing"
	"unsafe"
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
			Site: 3, Degrees: []uint32{1, 0}, Targets: []uint32{1},
			ListedPos: []uint32{0}, ListedW: []float64{2},
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
		func(s *SiteShard) { s.Degrees = append(s.Degrees, 0) },
		func(s *SiteShard) { s.ListedW[0] = 3 },
		func(s *SiteShard) { s.ListedPos, s.ListedW = nil, nil },
		func(s *SiteShard) { s.Degrees[1], s.Targets = 1, append(s.Targets, 0) },
		// The same bytes cut into columns at another place.
		func(s *SiteShard) { s.Degrees, s.Targets = []uint32{1}, []uint32{0, 1} },
	}
	for i, mutate := range mutations {
		m := base()
		mutate(&m)
		if m.ContentDigest() == a.ContentDigest() {
			t.Errorf("mutation %d did not change the digest", i)
		}
	}
}

// TestContentDigestPins: a shard's digest is the value every earlier
// build computed for it — a worker's cache stays warm across a rebuild of
// the codec — for a shard with listed weights and one without.
func TestContentDigestPins(t *testing.T) {
	for _, tc := range []struct {
		shard SiteShard
		want  string
	}{
		{SiteShard{Site: 2, Degrees: []uint32{2, 0, 1}, Targets: []uint32{1, 2, 0}, ListedPos: []uint32{1}, ListedW: []float64{3}},
			"f29cd41e0db48dd7362d7d38962415e378b985710046b39562c7afeeaac23c92"},
		{SiteShard{Site: 5, Degrees: []uint32{1, 2, 0, 1}, Targets: []uint32{1, 0, 3, 2}},
			"811df99cf99c67ba295993a7effdca5b72ae5e16c5a0bb7c42926da8e4ef0d26"},
	} {
		if got := tc.shard.ContentDigest(); hex.EncodeToString(got[:]) != tc.want {
			t.Errorf("site %d: digest %x, want %s", tc.shard.Site, got, tc.want)
		}
	}
}

// memory returns the bytes of v's elements, aliased.
func memory[T uint32 | float64](v []T) []byte {
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*int(unsafe.Sizeof(zero)))
}

// TestDigestSeesEveryColumnByte flips each byte of each column of a
// small shard, one at a time: every flip changes the
// digest, and DigestInputBytes is what the columns and the counts weigh.
func TestDigestSeesEveryColumnByte(t *testing.T) {
	s := SiteShard{
		Degrees: []uint32{2, 0, 1, 3}, Targets: []uint32{1, 2, 0, 0, 1, 3},
		ListedPos: []uint32{1, 4}, ListedW: []float64{2, 0.5},
	}
	want := s.ContentDigest()
	columns := map[string][]byte{
		"Degrees": memory(s.Degrees), "Targets": memory(s.Targets),
		"ListedPos": memory(s.ListedPos), "ListedW": memory(s.ListedW),
	}
	for name, m := range columns {
		for i := range m {
			for _, bit := range []byte{0x01, 0x80} {
				m[i] ^= bit
				if s.ContentDigest() == want {
					t.Errorf("%s byte %d ^ %#x: digest unchanged", name, i, bit)
				}
				m[i] ^= bit
			}
		}
	}
	if s.ContentDigest() != want {
		t.Fatal("flipping every byte back did not restore the digest")
	}
	if got, cols := s.DigestInputBytes(), uint64(4*(4+6+2)+8*2); got != 8*5+cols {
		t.Errorf("DigestInputBytes = %d, want %d: five counts and %d column bytes", got, 8*5+cols, cols)
	}
}
