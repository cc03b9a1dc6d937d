package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// marshal encodes v through a minimum-size scratch, so any message
// larger than minScratch also exercises the piecewise flush.
func marshal(t testing.TB, v any) Frame {
	t.Helper()
	kind, n, err := frameSize(v)
	if err != nil {
		t.Fatalf("frameSize(%T): %v", v, err)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, make([]byte, 0, minScratch), kind, n, v); err != nil {
		t.Fatalf("writeFrame(%T): %v", v, err)
	}
	if buf.Len() != headerLen+n {
		t.Fatalf("%T: frame is %d bytes, frameSize said %d", v, buf.Len(), headerLen+n)
	}
	return buf.Bytes()
}

// sameBits is reflect.DeepEqual with floats compared by bit pattern
// (NaN equals itself, 0 differs from -0) and a nil slice equal to an
// empty one — the equivalence the codec promises.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	default:
		return a.Interface() == b.Interface()
	}
}

func equalMessages(a, b any) bool { return sameBits(reflect.ValueOf(a), reflect.ValueOf(b)) }

// gen draws random messages with every field populated, whatever the
// kind: the codec carries fields, not kinds. shrink divides every slice
// length (fuzz seeds want to be small).
type gen struct {
	*rand.Rand
	shrink int
}

func newGen(seed int64) gen { return gen{rand.New(rand.NewSource(seed)), 1} }

var oddFloats = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, math.MaxFloat64, math.Float64frombits(0x7ff8000000000001)}

func (g gen) float() float64 {
	if g.Intn(4) == 0 {
		return oddFloats[g.Intn(len(oddFloats))]
	}
	return g.NormFloat64()
}

func (g gen) int() int {
	switch g.Intn(4) {
	case 0:
		return -g.Intn(1 << 20)
	case 1:
		return g.Int()
	default:
		return g.Intn(300)
	}
}

// count is a slice length: zero one time in three, so nil fields occur.
func (g gen) count(n int) int {
	n = max(2, n/g.shrink)
	return max(0, g.Intn(3*n/2)-n/2)
}

func (g gen) floats(n int) []float64 {
	v := make([]float64, g.count(n))
	for i := range v {
		v[i] = g.float()
	}
	return v
}

func (g gen) ints(n int) []int {
	v := make([]int, g.count(n))
	for i := range v {
		v[i] = g.int()
	}
	return v
}

func (g gen) digest() (d Digest) {
	g.Read(d[:])
	return d
}

func (g gen) refs(n int) []ShardRef {
	v := make([]ShardRef, g.count(n))
	for i := range v {
		v[i] = ShardRef{Site: g.int(), Digest: g.digest()}
	}
	return v
}

func (g gen) shard() SiteShard {
	s := SiteShard{Site: g.int(), NumDocs: g.int(), RowCols: g.ints(12), RowVals: g.floats(12)}
	s.Edges = make([]Edge, g.count(40))
	for i := range s.Edges {
		s.Edges[i] = Edge{From: g.int(), To: g.int(), Weight: g.float()}
	}
	return s
}

func (g gen) request(k Kind) *Request {
	r := &Request{
		Kind: k, Cached: g.refs(6), NumSites: g.int(),
		Damping: g.float(), Tol: g.float(), MaxIter: g.int(),
		X: g.floats(300), Sites: g.ints(20), Epoch: g.Uint64() >> g.Intn(64),
	}
	r.Shards = make([]SiteShard, g.count(5))
	for i := range r.Shards {
		r.Shards[i] = g.shard()
	}
	r.ShardsZ = make([]byte, g.count(2000))
	g.Read(r.ShardsZ)
	return r
}

func (g gen) response() *Response {
	r := &Response{
		Partial: g.floats(300), DanglingMass: g.float(),
		Missing: g.ints(20), Mass: g.float(),
	}
	if g.Intn(3) == 0 {
		r.Err = strings.Repeat("worker: boom ", g.Intn(80))
	}
	r.Local = make([]LocalRank, g.count(6))
	for i := range r.Local {
		r.Local[i] = LocalRank{Site: g.int(), Scores: g.floats(200), Iterations: g.int()}
	}
	return r
}

// messages yields seeded random messages: requests of every kind (plus
// one no build defines) and responses.
func messages(g gen, rounds int) []any {
	var out []any
	for i := 0; i < rounds; i++ {
		for k := KindPing; k <= KindAsyncAck+1; k++ {
			out = append(out, g.request(k))
		}
		out = append(out, g.response(), g.response())
	}
	return out
}

func zeroLike(v any) any { return reflect.New(reflect.TypeOf(v).Elem()).Interface() }

// TestRoundTrip is the property gob used to give for free: every field
// of every kind survives encode → decode, floats bit for bit.
func TestRoundTrip(t *testing.T) {
	for i, m := range messages(newGen(1), 40) {
		f := marshal(t, m)
		got := zeroLike(m)
		if err := f.Decode(got); err != nil {
			t.Fatalf("message %d (%T): decode: %v", i, m, err)
		}
		if !equalMessages(m, got) {
			t.Fatalf("message %d (%T) changed in flight:\nsent %+v\ngot  %+v", i, m, m, got)
		}
		if req, ok := m.(*Request); ok && f.Kind() != req.Kind {
			t.Errorf("message %d: frame kind %d, request kind %d", i, f.Kind(), req.Kind)
		}
	}
}

// TestEmptySlicesDecodeNil: into a zero value an empty or absent field
// decodes to nil, which is what the handlers' len() checks and the
// coordinator's nil checks were written against.
func TestEmptySlicesDecodeNil(t *testing.T) {
	var req Request
	if err := marshal(t, &Request{Kind: KindRankLocal, Sites: []int{}, X: []float64{}}).Decode(&req); err != nil {
		t.Fatal(err)
	}
	if req.Sites != nil || req.X != nil || req.Shards != nil || req.Cached != nil {
		t.Errorf("empty fields decoded non-nil: %+v", req)
	}
	var resp Response
	if err := marshal(t, &Response{Local: []LocalRank{{Site: 3}}}).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Local) != 1 || resp.Local[0].Scores != nil || resp.Partial != nil || resp.Err != "" {
		t.Errorf("empty fields decoded non-nil: %+v", resp)
	}
}

// TestDecodeOverwritesStaleFields: decoding into a used destination
// equals decoding into a zero one — no field of the earlier, larger
// message survives — while the slices' arrays are reused.
func TestDecodeOverwritesStaleFields(t *testing.T) {
	msgs := messages(newGen(2), 12)
	dsts := map[reflect.Type]any{}
	for i, m := range msgs {
		typ := reflect.TypeOf(m)
		if dsts[typ] == nil {
			dsts[typ] = zeroLike(m)
		}
		// Every other message is minimal, so large ones precede small.
		if i%2 == 1 {
			if _, ok := m.(*Request); ok {
				m = &Request{Kind: KindPing}
			} else {
				m = &Response{}
			}
		}
		f := marshal(t, m)
		fresh := zeroLike(m)
		if err := f.Decode(fresh); err != nil {
			t.Fatal(err)
		}
		if err := f.Decode(dsts[typ]); err != nil {
			t.Fatal(err)
		}
		if !equalMessages(fresh, dsts[typ]) {
			t.Fatalf("message %d (%T): reused destination differs from a fresh one:\nfresh  %+v\nreused %+v", i, m, fresh, dsts[typ])
		}
	}

	var resp Response
	big := &Response{Partial: make([]float64, 220)}
	if err := marshal(t, big).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	before := &resp.Partial[0]
	small := &Response{Partial: make([]float64, 100)}
	if err := marshal(t, small).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Partial) != 100 || &resp.Partial[0] != before {
		t.Error("a smaller vector did not reuse the destination's array")
	}
}

// TestWireSizeIsExact pins the bytes-saved accounting's unit: WireSize
// is the length of the encoding, not an estimate of it.
func TestWireSizeIsExact(t *testing.T) {
	g := newGen(3)
	for i := 0; i < 200; i++ {
		sh := g.shard()
		var buf bytes.Buffer
		w := codec{mode: writing, b: make([]byte, 0, minScratch), out: &buf}
		w.shard(&sh)
		w.flush()
		if got := sh.WireSize(); got != uint64(buf.Len()) {
			t.Fatalf("shard %d: WireSize %d, encoded %d bytes", i, got, buf.Len())
		}
	}
}

func TestCompressShardsRoundTrip(t *testing.T) {
	g := newGen(4)
	shards := make([]SiteShard, 30)
	var raw int
	for i := range shards {
		shards[i] = g.shard()
		raw += int(shards[i].WireSize())
	}
	z, rawLen, err := CompressShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	if rawLen != raw+1 { // the shard count is one varint byte
		t.Errorf("raw length %d, want %d", rawLen, raw+1)
	}
	got, err := DecompressShards(z)
	if err != nil {
		t.Fatal(err)
	}
	if !equalMessages(shards, got) {
		t.Error("shards changed through compression")
	}
	if _, err := DecompressShards(z[:len(z)/2]); err == nil {
		t.Error("a truncated stream decompressed cleanly")
	}
}

// header builds a frame header claiming n payload bytes.
func header(kind Kind, n uint32) []byte {
	return binary.LittleEndian.AppendUint32([]byte{frameMagic | frameVersion, byte(kind)}, n)
}

// frameOf wraps payload pieces in a well-formed header.
func frameOf(kind Kind, pieces ...[]byte) Frame {
	payload := bytes.Join(pieces, nil)
	return append(header(kind, uint32(len(payload))), payload...)
}

func uv(x uint64) []byte { return binary.AppendUvarint(nil, x) }

// TestHostileFrames: everything a broken or malicious peer can send is
// an error — of the promised class — and never a panic.
func TestHostileFrames(t *testing.T) {
	valid := marshal(t, &Request{Kind: KindPowerRound, NumSites: 3, X: []float64{1, 2, 3}})
	cases := []struct {
		name    string
		frame   []byte
		into    any
		is      error  // errors.Is target, when the class is promised
		mention string // substring of the message otherwise
	}{
		{"gob peer", append([]byte{0x4a, 0xff, 0x81, 0x03, 0x01, 0x01}, valid[headerLen:]...), &Request{}, nil, "magic"},
		{"future version", append([]byte{frameMagic | (frameVersion + 1)}, valid[1:]...), &Request{}, nil, fmt.Sprintf("version %d, this build speaks %d", frameVersion+1, frameVersion)},
		// A mixed-build fleet: the peer from before the replicated-chain
		// round batches were retired.
		{"version 3", append([]byte{frameMagic | 3}, valid[1:]...), &Request{}, nil, fmt.Sprintf("version 3, this build speaks %d", frameVersion)},
		{"short header", valid[:4], &Request{}, io.ErrUnexpectedEOF, ""},
		{"truncated payload", valid[:len(valid)-5], &Request{}, io.ErrUnexpectedEOF, ""},
		{"bytes after frame", append(append([]byte{}, valid...), 0), &Request{}, nil, "after the frame"},
		{"oversize length", header(KindPing, MaxFrameBytes), &Request{}, nil, "MaxFrameBytes"},
		{"request into response", valid, &Response{}, nil, "response was expected"},
		{"response into request", marshal(t, &Response{}), &Request{}, nil, "not a request"},
		{"wrong destination", valid, &SiteShard{}, nil, "cannot encode or decode"},
		// A shard count no site space admits.
		{"count past MaxSites", frameOf(KindLoad, uv(MaxSites+1)), &Request{}, nil, "exceeds"},
		// 1000 shards in a 2-byte payload.
		{"count past the frame", frameOf(KindLoad, uv(1000)), &Request{}, io.ErrUnexpectedEOF, ""},
		{"varint overflow", frameOf(KindLoad, bytes.Repeat([]byte{0xff}, 11)), &Request{}, nil, "overflows"},
	}
	for _, tc := range cases {
		err := Frame(tc.frame).Decode(tc.into)
		switch {
		case err == nil:
			t.Errorf("%s: decoded cleanly", tc.name)
		case tc.is != nil && !errors.Is(err, tc.is):
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.is)
		case !strings.Contains(err.Error(), tc.mention):
			t.Errorf("%s: err = %v, want a mention of %q", tc.name, err, tc.mention)
		}
	}

	// A padded valid payload: the trailing byte is inside the frame.
	padded := append(header(KindPowerRound, uint32(len(valid)-headerLen+1)), valid[headerLen:]...)
	if err := Frame(append(padded, 0)).Decode(&Request{}); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("padded payload: err = %v, want trailing bytes refused", err)
	}
	// Every proper prefix of a valid frame is a truncation.
	for n := range valid {
		if err := Frame(valid[:n]).Decode(&Request{}); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("prefix of %d bytes: err = %v, want io.ErrUnexpectedEOF", n, err)
		}
	}
	if err := (&Encoder{}).Encode(&Request{}); err == nil {
		t.Error("a request of kind 0 — the response marker — was encoded")
	}
	if err := (&Encoder{}).Encode(Request{Kind: KindPing}); err == nil {
		t.Error("a non-pointer message was encoded")
	}
}

// TestHostileCountsAllocateNothing measures what the length checks are
// for: a frame of a few bytes claiming millions of elements is refused
// before any of them is allocated.
func TestHostileCountsAllocateNothing(t *testing.T) {
	req := frameOf(KindLoad, uv(MaxSites))
	// Empty Err, no local ranks, then a 4M-float partial.
	resp := frameOf(kindResponse, []byte{0, 0}, uv(MaxSites))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		if err := req.Decode(&Request{}); err == nil {
			t.Fatal("hostile request decoded")
		}
		if err := resp.Decode(&Response{}); err == nil {
			t.Fatal("hostile response decoded")
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
		t.Errorf("20 hostile frames of %d bytes allocated %d bytes", len(req), got)
	}
}

// pipe returns a connected client/server Conn pair over net.Pipe.
func pipe(t testing.TB) (cli, srv *Conn) {
	a, b := net.Pipe()
	cli, srv = NewConn(a, new(Counters)), NewConn(b, new(Counters))
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, srv
}

// powerRoundPeer answers every request with a partial of the request's
// dimension, reusing its request, its response and its vector — what a
// worker session does. It ends when the client hangs up.
func powerRoundPeer(srv *Conn) {
	var req Request
	var resp Response
	for srv.Dec.Decode(&req) == nil {
		if cap(resp.Partial) < len(req.X) {
			resp.Partial = make([]float64, len(req.X))
		}
		resp.Partial = resp.Partial[:len(req.X)]
		copy(resp.Partial, req.X)
		resp.DanglingMass = 0.01
		if srv.Enc.Encode(&resp) != nil {
			return
		}
	}
}

const benchSites = 220 // N_S of the benchmark's dist-wan web

// TestSteadyStateExchangeAllocatesNothing is the tentpole's pin: once
// the scratch buffers and destinations have seen one round, a
// KindPowerRound exchange allocates nothing on either end.
func TestSteadyStateExchangeAllocatesNothing(t *testing.T) {
	cli, srv := pipe(t)
	go powerRoundPeer(srv)
	req := &Request{Kind: KindPowerRound, NumSites: benchSites, X: make([]float64, benchSites)}
	for i := range req.X {
		req.X[i] = 1 / float64(benchSites)
	}
	var resp Response
	exchange := func() {
		if err := cli.Enc.Encode(req); err != nil {
			t.Fatal(err)
		}
		if err := cli.Dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
	}
	exchange()
	if allocs := testing.AllocsPerRun(200, exchange); allocs != 0 {
		t.Errorf("a steady-state exchange allocates %v times, want 0", allocs)
	}
	if len(resp.Partial) != benchSites || resp.Partial[7] != req.X[7] {
		t.Errorf("payload corrupted: %v", resp.Partial[:8])
	}
}

// TestLargeFramesCrossInPieces: a frame past retainBytes is written
// through the scratch, read into a one-shot buffer and relayed a
// scratchful at a time — and neither end keeps a buffer of its size.
func TestLargeFramesCrossInPieces(t *testing.T) {
	g := newGen(5)
	big := &Response{Local: make([]LocalRank, 40)}
	for i := range big.Local {
		big.Local[i] = LocalRank{Site: i, Scores: make([]float64, 3000)}
		for j := range big.Local[i].Scores {
			big.Local[i].Scores[j] = g.float()
		}
	}
	if _, n, _ := frameSize(big); n < 10*retainBytes {
		t.Fatalf("test frame is only %d bytes", n)
	}
	cli, srv := pipe(t)
	mid, far := pipe(t)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); srv.Enc.Encode(big) }()
	go func() { defer wg.Done(); cli.Dec.RelayTo(&mid.Enc) }()
	var got Response
	if err := far.Dec.Decode(&got); err != nil {
		t.Fatalf("decode relayed frame: %v", err)
	}
	wg.Wait()
	if !equalMessages(big, &got) {
		t.Error("large frame changed in flight")
	}
	for name, buf := range map[string][]byte{"writer": srv.Enc.buf, "relay": cli.Dec.buf, "reader": far.Dec.buf} {
		if cap(buf) > retainBytes {
			t.Errorf("%s kept a %d-byte buffer, cap is %d", name, cap(buf), retainBytes)
		}
	}
}

// TestStreamErrors: how the connection reports its peer going away.
func TestStreamErrors(t *testing.T) {
	cli, srv := pipe(t)
	go srv.Close()
	if _, err := cli.Dec.ReadFrame(); err != io.EOF {
		t.Errorf("hang-up between frames: err = %v, want io.EOF", err)
	}

	cli, srv = pipe(t)
	frame := marshal(t, &Response{Partial: make([]float64, 50)})
	go func() {
		srv.Enc.Write(frame[:len(frame)/2])
		srv.Close()
	}()
	if err := cli.Dec.Decode(&Response{}); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("hang-up inside a frame: err = %v, want io.ErrUnexpectedEOF", err)
	}

	cli, srv = pipe(t)
	go srv.Enc.Write([]byte{0x4a, 0xff, 0x81, 0x03, 0x01, 0x01})
	if _, err := cli.Dec.ReadFrame(); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("gob bytes on the stream: err = %v, want the magic mismatch named", err)
	}
}

// TestOversizeFrameIsRefusedUnsent pins the sender's half of
// MaxFrameBytes: a message whose frame would pass it — a KindLoad
// carrying over 1 GiB of shards to one worker — fails at Encode, naming
// the cap, before a byte is written, so the stream stays in sync.
func TestOversizeFrameIsRefusedUnsent(t *testing.T) {
	vals := make([]float64, 1<<20)
	huge := &Request{Kind: KindLoad, Shards: make([]SiteShard, MaxFrameBytes/(8*len(vals))+1)}
	for i := range huge.Shards {
		huge.Shards[i].RowVals = vals
	}
	cli, srv := pipe(t)
	if err := cli.Enc.Encode(huge); err == nil || !strings.Contains(err.Error(), "MaxFrameBytes") {
		t.Fatalf("Encode of a frame past the cap: err = %v, want MaxFrameBytes named", err)
	}
	go cli.Enc.Encode(&Request{Kind: KindPing})
	var got Request
	if err := srv.Dec.Decode(&got); err != nil || got.Kind != KindPing {
		t.Errorf("exchange after the refusal: %+v, %v — the refused frame left bytes on the stream", got, err)
	}
}

// FuzzWireDecode: no bytes make the decoder panic or allocate beyond a
// small multiple of their length, whether they arrive as a frame or as
// the payload of a well-formed one; and whatever decodes re-encodes to
// something that decodes to the same value.
func FuzzWireDecode(f *testing.F) {
	small := newGen(6)
	small.shrink = 10
	for _, m := range messages(small, 1) {
		f.Add([]byte(marshal(f, m)))
	}
	f.Add([]byte{})
	f.Add(header(KindLoad, 3))
	// A version-3 frame (the protocol before the replicated-chain round
	// batches were retired), and the two messages the declared-session
	// contract refuses one level above the decoder: a Load naming a site
	// twice, a Missing that is not a set.
	old := marshal(f, &Request{Kind: KindLoad, NumSites: 3})
	old[0] = frameMagic | 3
	f.Add([]byte(old))
	f.Add([]byte(marshal(f, &Request{Kind: KindLoad, NumSites: 3, Cached: []ShardRef{{Site: 1}, {Site: 1}}})))
	f.Add([]byte(marshal(f, &Response{Missing: []int{3, 3}})))
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(frame Frame, dst any) {
			if err := frame.Decode(dst); err != nil {
				return
			}
			if got := footprint(reflect.ValueOf(dst).Elem()); got > 20*len(frame) {
				t.Fatalf("a %d-byte frame decoded into %d bytes of slices", len(frame), got)
			}
			again := zeroLike(dst)
			if err := marshal(t, dst).Decode(again); err != nil {
				t.Fatalf("re-encoded message does not decode: %v", err)
			}
			if !equalMessages(dst, again) {
				t.Fatalf("re-encoding changed the message:\nfirst %+v\nagain %+v", dst, again)
			}
		}
		check(data, &Request{})
		check(data, &Response{})
		if len(data) > 0 {
			payload := data[1:]
			check(append(header(Kind(data[0]), uint32(len(payload))), payload...), &Request{})
			check(append(header(kindResponse, uint32(len(payload))), payload...), &Response{})
		}
	})
}

// footprint sums the bytes of every slice array reachable from v.
func footprint(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Slice:
		n = v.Cap() * int(v.Type().Elem().Size())
		for i := 0; i < v.Len(); i++ {
			n += footprint(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += footprint(v.Field(i))
		}
	case reflect.Pointer:
		if !v.IsNil() {
			n = int(v.Type().Elem().Size()) + footprint(v.Elem())
		}
	case reflect.String:
		n = v.Len()
	}
	return n
}

// BenchmarkWireRoundTrip is one SiteRank power round's message pair at
// the benchmark web's N_S over an in-memory pipe, destinations reused:
// ns/op, B/op and allocs/op of the codec and framing alone.
func BenchmarkWireRoundTrip(b *testing.B) {
	cli, srv := pipe(b)
	go powerRoundPeer(srv)
	req := &Request{Kind: KindPowerRound, NumSites: benchSites, X: make([]float64, benchSites)}
	var resp Response
	b.ReportAllocs()
	for b.Loop() {
		if err := cli.Enc.Encode(req); err != nil {
			b.Fatal(err)
		}
		if err := cli.Dec.Decode(&resp); err != nil {
			b.Fatal(err)
		}
	}
}
