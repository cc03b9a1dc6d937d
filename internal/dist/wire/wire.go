// Package wire defines the framed binary protocol spoken over TCP
// between the distributed-ranking coordinator and its workers, plus the
// counting connection wrapper that makes transport statistics
// (messages, bytes) real on both ends of every socket.
//
// The protocol is a strict request/response alternation per connection:
// the coordinator encodes one Request, the worker decodes it, performs
// the operation and encodes one Response. Each message is one stateless
// length-prefixed frame (codec.go has the layout) whose columns and
// float vectors are raw little-endian blocks, so a shard or a site's
// local scores cost their raw payload plus a few bytes, and decoding
// into a reused destination allocates nothing.
package wire

import (
	"crypto/sha256"
	"io"
	"net"
	"slices"
	"sync/atomic"
	"time"
)

// Kind discriminates request types.
type Kind uint8

// Protocol operations, coordinator → worker. Kinds 4 to 7 are retired:
// frame versions 2 to 7 used 4 for the fleet's SiteRank rounds, versions
// 2 and 3 used 5 for rounds run against a site chain replicated on the
// worker, versions 2 to 4 used 6 and 7 for the barrier-free SiteRank's
// sweeps and epoch drains, and a request carrying one is answered
// "unknown request kind".
const (
	// KindPing checks liveness; the response carries no payload.
	KindPing Kind = iota + 1
	// KindLoad declares the session: after it the worker's session holds
	// exactly the shards the request names over NumSites — Cached by
	// (site, digest), Shards in full — and nothing else. The
	// worker resolves each Cached ref against the session it already has
	// (same site, same digest: kept, chain and all), then its
	// digest-keyed cache, and answers the ones it holds nowhere in
	// Response.Missing; the coordinator declares again with those in
	// full. Nothing but a Load adds to or removes from a session, so a
	// run's first Load is its reset, a rebalance is a smaller
	// declaration, a retransmitted Load changes nothing — and delta
	// shipping after graph churn needs no message of its own: a mutation
	// confined to one site changes one shard digest, so N refs come back
	// with one Missing.
	KindLoad
	// KindRankLocal computes the local DocRank of loaded sites (all of
	// them, or the subset listed in Request.Sites).
	KindRankLocal
	// KindPowerRound is retired: a worker answers it "unknown request
	// kind".
	//
	// Deprecated: the site layer is solved on the coordinator.
	KindPowerRound
)

// MaxShardDocs bounds the document count of one shard and the
// aggregate of one Load request, and MaxSites bounds the site-space
// dimension. Both are far beyond any real deployment (the paper's whole
// crawl is ~10^5 documents). Every document a shard claims costs 4 wire
// bytes (its out-degree), so the frame bound already pays for what a
// shard's count makes the worker allocate; MaxShardDocs caps what one
// declaration may make it hold, and a worker refuses a Load past it
// before building any of its shards.
const (
	MaxShardDocs = 1 << 22
	MaxSites     = 1 << 22
)

// SiteShard is one site's slice of the distributed computation: its
// local document subgraph G^s_d, the input of the worker-side DocRank.
//
// The subgraph crosses in the columns the graph file stores
// (graph.Columns), in the site's local indices: the coordinator hands
// over the subgraph's listed links as they are and its targets widened
// to 4 bytes, and the worker builds its chain from the decoded columns,
// narrowing the targets as it checks them, so no link is re-added or
// re-sorted on the way.
type SiteShard struct {
	// Site is the SiteID in the coordinator's DocGraph.
	Site int
	// Degrees holds each local document's out-degree within the site;
	// the shard's document count is its length.
	Degrees []uint32
	// Targets holds every document's local targets, row after row, each
	// row strictly ascending.
	Targets []uint32
	// ListedPos and ListedW are the links whose weight is not 1: their
	// positions among Targets, strictly ascending, and their weights.
	// Every link not listed weighs exactly 1.
	ListedPos []uint32
	ListedW   []float64
}

// NumDocs returns the number of local documents (subgraph nodes).
func (s *SiteShard) NumDocs() int { return len(s.Degrees) }

// Digest is the content address of a shard: SHA-256 over a canonical
// serialization. Workers recompute digests from the bytes
// they actually received and key their caches by that value, so a
// coordinator cannot bind a digest to foreign content (no cache
// poisoning across coordinators sharing a worker).
type Digest [sha256.Size]byte

// ShardRef names a shard by site and content digest: how a KindLoad
// declares a shard without shipping it.
type ShardRef struct {
	Site   int
	Digest Digest
}

// Request is the coordinator → worker envelope. Only the fields of the
// active Kind are populated; an inactive slice costs one byte on the
// wire.
type Request struct {
	Kind Kind
	// Shards carries KindLoad payload: shards shipped in full.
	Shards []SiteShard
	// Cached lists the shards KindLoad declares by reference: the worker
	// keeps or activates each from its session or digest cache, or
	// reports its site in Response.Missing.
	Cached []ShardRef
	// NumSites is the site-space dimension KindLoad declares its sites
	// in.
	NumSites int
	// Damping/Tol/MaxIter parameterize KindRankLocal. Zero values select
	// the package defaults.
	Damping float64
	Tol     float64
	MaxIter int
	// X was KindPowerRound's SiteRank iterate. It still crosses the wire.
	//
	// Deprecated: no live kind reads it.
	X []float64
	// Sites restricts KindRankLocal to the listed sites (empty = every
	// loaded site) — the coordinator re-ranks only reassigned sites after
	// a worker loss.
	Sites []int
}

// LocalRank is one site's local DocRank as computed by a worker.
type LocalRank struct {
	Site       int
	Scores     []float64
	Iterations int
}

// Response is the worker → coordinator envelope.
type Response struct {
	// Err is non-empty when the operation failed worker-side.
	Err string
	// Local carries KindRankLocal results, one entry per loaded site.
	Local []LocalRank
	// Partial and DanglingMass were KindPowerRound's answer. They still
	// cross the wire.
	//
	// Deprecated: no worker fills them.
	Partial      []float64
	DanglingMass float64
	// Missing answers KindLoad: the Cached sites, each at most once,
	// whose digest neither the session nor the cache holds; the
	// coordinator declares again with them in full.
	Missing []int
}

// Counters accumulates transport statistics for one endpoint. All
// methods are safe for concurrent use.
type Counters struct {
	messages atomic.Uint64
	bytesIn  atomic.Uint64
	bytesOut atomic.Uint64
}

// AddMessage records one protocol message (a request/response pair
// counts once on each end, attributed to the receiver of the request).
func (c *Counters) AddMessage() { c.messages.Add(1) }

// Messages returns the number of protocol messages recorded.
func (c *Counters) Messages() uint64 { return c.messages.Load() }

// BytesReceived returns the total bytes read from counted connections.
func (c *Counters) BytesReceived() uint64 { return c.bytesIn.Load() }

// BytesSent returns the total bytes written to counted connections.
func (c *Counters) BytesSent() uint64 { return c.bytesOut.Load() }

// Conn wraps a net.Conn so every byte crossing it is attributed to a
// Counters, and pairs the connection with its frame codecs. Each
// direction owns one scratch buffer of at most retainBytes: a small frame
// crosses it whole and allocates nothing; a larger frame is written
// through it in pieces and read into a one-shot buffer.
type Conn struct {
	conn net.Conn
	c    *Counters
	Enc  Encoder
	Dec  Decoder
}

// NewConn wraps conn, attributing its traffic to counters.
func NewConn(conn net.Conn, counters *Counters) *Conn {
	w := &Conn{conn: conn, c: counters}
	w.Enc.c, w.Dec.c = w, w
	return w
}

// Close closes the underlying connection.
func (w *Conn) Close() error { return w.conn.Close() }

// SetDeadline bounds both reads and writes on the underlying
// connection; the zero time clears the bound.
func (w *Conn) SetDeadline(t time.Time) error { return w.conn.SetDeadline(t) }

// RemoteAddr exposes the peer address for error messages.
func (w *Conn) RemoteAddr() net.Addr { return w.conn.RemoteAddr() }

func (w *Conn) readFull(p []byte) error {
	n, err := io.ReadFull(w.conn, p)
	w.c.bytesIn.Add(uint64(n))
	return err
}

// Encoder writes frames to a Conn. Not safe for concurrent use.
type Encoder struct {
	c   *Conn
	buf []byte
}

// Encode writes v, a *Request or *Response, as one frame: in one Write
// when it fits the retained scratch, in pieces otherwise — scratchfuls,
// and a raw block larger than the scratch in one Write of its own.
func (e *Encoder) Encode(v any) error {
	kind, n, err := frameSize(v)
	if err != nil {
		return err
	}
	if want := min(headerLen+n, retainBytes); cap(e.buf) < want {
		e.buf = make([]byte, 0, scratchCap(want))
	}
	return writeFrame(e, e.buf, kind, n, v)
}

// Write sends p to the peer as it is — how a proxy forwards the bytes of
// a frame it already holds.
func (e *Encoder) Write(p []byte) (int, error) {
	n, err := e.c.conn.Write(p)
	e.c.c.bytesOut.Add(uint64(n))
	return n, err
}

// Decoder reads frames off a Conn. Not safe for concurrent use.
type Decoder struct {
	c   *Conn
	buf []byte
}

// readHeader reads and validates the next frame's header into the head
// of the scratch and returns the payload length. A stream that ends
// between frames is io.EOF; a header that is not this protocol's is an
// error naming the mismatch.
func (d *Decoder) readHeader() (int, error) {
	if d.buf == nil {
		d.buf = make([]byte, minScratch)
	}
	if err := d.c.readFull(d.buf[:headerLen]); err != nil {
		return 0, err
	}
	_, n, err := parseHeader(d.buf[:headerLen])
	return n, err
}

// grow makes the scratch at least n bytes, n at most retainBytes,
// keeping the header at its head.
func (d *Decoder) grow(n int) {
	if n > cap(d.buf) {
		d.buf = append(make([]byte, 0, scratchCap(n)), d.buf[:headerLen]...)
	}
}

// ReadFrame reads the next frame whole. The bytes are the connection's
// scratch: valid until the next read. A stream that ends inside a frame
// is io.ErrUnexpectedEOF. Memory is claimed as payload bytes arrive,
// never on the say-so of a length prefix: a frame within retainBytes
// lands in the kept scratch, a larger one in a buffer of its own that
// grows at most readChunk ahead of what has been received.
func (d *Decoder) ReadFrame() (Frame, error) {
	n, err := d.readHeader()
	if err != nil {
		return nil, err
	}
	total := headerLen + n
	if total > retainBytes {
		return d.readOneShot(total)
	}
	d.grow(total)
	f := d.buf[:total]
	if err := d.c.readFull(f[headerLen:]); err != nil {
		return nil, unexpectedEOF(err)
	}
	return f, nil
}

// RelayTo copies the next frame to w through the scratch — in one Write
// when it fits, a scratchful at a time when it does not — how a proxy
// forwards an answer it has no reason to hold, let alone decode.
func (d *Decoder) RelayTo(w io.Writer) error {
	n, err := d.readHeader()
	if err != nil {
		return err
	}
	d.grow(min(headerLen+n, retainBytes))
	buf := d.buf[:cap(d.buf)]
	for have := headerLen; ; have = 0 {
		k := min(n, len(buf)-have)
		if err := d.c.readFull(buf[have : have+k]); err != nil {
			return unexpectedEOF(err)
		}
		if _, err := w.Write(buf[:have+k]); err != nil {
			return err
		}
		if n -= k; n == 0 {
			return nil
		}
	}
}

// readOneShot reads a frame too large for the scratch into a buffer of
// its own, claimed a readChunk at a time as the payload arrives.
func (d *Decoder) readOneShot(total int) (Frame, error) {
	f := append(make([]byte, 0, min(total, headerLen+readChunk)), d.buf[:headerLen]...)
	for len(f) < total {
		have, m := len(f), min(total-len(f), readChunk)
		f = slices.Grow(f, m)[:have+m]
		if err := d.c.readFull(f[have:]); err != nil {
			return nil, unexpectedEOF(err)
		}
	}
	return f, nil
}

// unexpectedEOF maps the clean EOF of a read that began inside a frame
// to what it is there: a truncated frame.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Decode reads the next frame and parses it into v; see Frame.Decode
// for the reuse and ownership rule.
func (d *Decoder) Decode(v any) error {
	f, err := d.ReadFrame()
	if err != nil {
		return err
	}
	return f.Decode(v)
}

// ContentDigest returns the shard's content address: SHA-256 over the
// document count, the lengths of the other three columns, the four
// columns' little-endian bytes in field order, then a zero — every
// integer 8 bytes little-endian, every column a raw block, fed through
// the codec's writer. The zero is the length of the site-chain row
// shards carried until frame version 8, kept so every shard keeps the
// digest earlier builds gave it. Both ends compute it with this
// function — the coordinator to offer, the worker to key its cache — so
// the value is meaningful across processes and runs.
func (s *SiteShard) ContentDigest() Digest {
	h := sha256.New()
	// Room for the four counts; a column that does not fit goes to the
	// hash in one Write of its own.
	w := codec{mode: writing, b: make([]byte, 0, 32), out: h}
	for _, n := range [...]int{len(s.Degrees), len(s.Targets), len(s.ListedPos), len(s.ListedW)} {
		w.fixed(n)
	}
	block(&w, s.Degrees, 4)
	block(&w, s.Targets, 4)
	block(&w, s.ListedPos, 4)
	block(&w, s.ListedW, 8)
	w.fixed(0)
	w.flush()
	var out Digest
	h.Sum(out[:0])
	return out
}

// DigestInputBytes returns how many bytes ContentDigest feeds through
// SHA-256 for this shard — the basis of the coordinator's digest-work
// accounting (Stats.DigestBytesHashed), which carried digests drive to
// zero on warm runs.
func (s *SiteShard) DigestInputBytes() uint64 {
	columns := 4*(len(s.Degrees)+len(s.Targets)+len(s.ListedPos)) + 8*len(s.ListedW)
	return uint64(8*5 + columns)
}
