// Package wire defines the framed binary protocol spoken over TCP
// between the distributed-ranking coordinator and its workers, plus the
// counting connection wrapper that makes transport statistics
// (messages, bytes) real on both ends of every socket.
//
// The protocol is a strict request/response alternation per connection:
// the coordinator encodes one Request, the worker decodes it, performs
// the operation and encodes one Response. Each message is one stateless
// length-prefixed frame (codec.go has the layout) whose float vectors
// are raw little-endian blocks, so a SiteRank power round costs the raw
// float payload plus a few dozen bytes (a vector of N_S values each way
// — the paper's claim that the site-layer exchange is small), and
// decoding into a reused destination allocates nothing.
package wire

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"
	"net"
	"slices"
	"sync/atomic"
	"time"
)

// Kind discriminates request types.
type Kind uint8

// Protocol operations, coordinator → worker.
const (
	// KindPing checks liveness; the response carries no payload.
	KindPing Kind = iota + 1
	// KindLoad declares the session: after it the worker's session holds
	// exactly the shards the request names over NumSites — Cached by
	// (site, digest), Shards/ShardsZ in full — plus the site chain under
	// ChainDigest when HasChain, and nothing else. The worker resolves
	// each Cached ref against the session it already has (same site,
	// same digest: kept, warm solver and all), then its digest-keyed
	// cache, and answers the ones it holds nowhere in Response.Missing;
	// the coordinator declares again with those in full. Nothing but a
	// Load adds to or removes from a session, so a run's first Load is
	// its reset, a rebalance is a smaller declaration, a retransmitted
	// Load changes nothing — and delta shipping after graph churn needs
	// no message of its own: a mutation confined to one site changes
	// one shard digest, so N refs come back with one Missing.
	KindLoad
	// KindRankLocal computes the local DocRank of loaded sites (all of
	// them, or the subset listed in Request.Sites).
	KindRankLocal
	// KindPowerRound performs one distributed SiteRank power step over
	// the worker's owned rows of the site transition chain.
	KindPowerRound
	// KindBatchRounds runs up to Request.Rounds damped SiteRank power
	// rounds locally on the worker against its replicated site chain and
	// returns the resulting iterate — round batching, trading one larger
	// chain shipment at load time for K× fewer SiteRank exchanges.
	KindBatchRounds
	// KindAsyncUpdate performs one barrier-free SiteRank sweep: the same
	// row-partition arithmetic as KindPowerRound (partial product over
	// owned rows plus dangling mass), but additionally reporting the
	// iterate mass sitting on the owned sites (Response.Mass) so the
	// coordinator can merge contributions taken from *different* iterate
	// snapshots — the asynchronous mode's per-worker sweeps never share a
	// round barrier. Request.Epoch versions the accumulator generation the
	// sweep feeds; the worker counts sweeps per epoch.
	KindAsyncUpdate
	// KindAsyncAck drains one asynchronous epoch: the worker reports how
	// many KindAsyncUpdate sweeps it served in Request.Epoch
	// (Response.Rounds), then retires that epoch — a late or duplicated
	// update for a drained epoch is refused instead of silently feeding a
	// stale accumulator.
	KindAsyncAck
)

// MaxShardDocs bounds the aggregate claimed document count of one Load
// request, and MaxSites bounds the site-space dimension. Both are far
// beyond any real deployment (the paper's whole crawl is ~10^5
// documents). They do not make allocation strictly proportional to wire
// bytes — a shard may legitimately hold many edge-free documents — but
// they cap the amplification a malformed or hostile request can buy
// (~100 MB of adjacency headers per request at the limit) well below
// address-space exhaustion.
const (
	MaxShardDocs = 1 << 22
	MaxSites     = 1 << 22
)

// Edge is one weighted directed edge of a shipped local subgraph, in
// the site's compact local indices.
type Edge struct {
	From, To int
	Weight   float64
}

// SiteShard is one site's slice of the distributed computation: its
// local document subgraph G^s_d (the input of the worker-side DocRank)
// and its row of the site-level transition chain M(G_S) (the input of
// the distributed SiteRank power iteration).
type SiteShard struct {
	// Site is the SiteID in the coordinator's DocGraph.
	Site int
	// NumDocs is the number of local documents (subgraph nodes).
	NumDocs int
	// Edges is the local subgraph in local indices.
	Edges []Edge
	// RowCols/RowVals hold the non-zeros of row Site of the
	// row-stochastic site transition matrix. Empty = dangling site.
	RowCols []int
	RowVals []float64
}

// Digest is the content address of a shard or site chain: SHA-256 over
// a canonical serialization. Workers recompute digests from the bytes
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

// SiteChain is the full row-normalized site transition matrix M(G_S) in
// CSR form: row s spans Cols/Vals[RowPtr[s]:RowPtr[s+1]], an empty span
// marking a dangling site. It is shipped to workers when round batching
// is on, so a worker can run whole damped power rounds locally.
type SiteChain struct {
	NumSites int
	RowPtr   []int
	Cols     []int
	Vals     []float64
}

// Request is the coordinator → worker envelope. Only the fields of the
// active Kind are populated; an inactive slice costs one byte on the
// wire.
type Request struct {
	Kind Kind
	// Shards carries KindLoad payload: shards shipped in full.
	Shards []SiteShard
	// ShardsZ carries KindLoad shards in compressed form — the flate
	// stream produced by CompressShards — when the coordinator's
	// Config.Compress is on. A request may carry both Shards and
	// ShardsZ; the worker concatenates them.
	ShardsZ []byte
	// Cached lists the shards KindLoad declares by reference: the worker
	// keeps or activates each from its session or digest cache, or
	// reports its site in Response.Missing.
	Cached []ShardRef
	// Chain optionally ships the full site chain at KindLoad (round
	// batching replicates it on every worker).
	Chain *SiteChain
	// HasChain declares that the session holds the site chain under
	// ChainDigest: with a nil Chain the worker keeps or activates its
	// copy, or answers Response.MissingChain.
	HasChain    bool
	ChainDigest Digest
	// NumSites is the site-space dimension, needed by KindPowerRound and
	// KindBatchRounds iterates and validated at KindLoad.
	NumSites int
	// Damping/Tol/MaxIter parameterize KindRankLocal; KindBatchRounds
	// reads Damping and Tol but takes its round budget from Rounds, not
	// MaxIter. Zero values select the package defaults.
	Damping float64
	Tol     float64
	MaxIter int
	// X is the current SiteRank iterate for KindPowerRound and
	// KindBatchRounds.
	X []float64
	// V is the site-layer teleport (personalization) distribution for
	// KindBatchRounds; empty selects uniform. It must have NumSites
	// non-negative entries with positive sum; the worker renormalizes.
	V []float64
	// Sites restricts KindRankLocal to the listed sites (empty = every
	// loaded site) — the coordinator re-ranks only reassigned sites after
	// a worker loss.
	Sites []int
	// Rounds asks KindBatchRounds for up to this many power rounds.
	Rounds int
	// Epoch versions the asynchronous accumulator generation for
	// KindAsyncUpdate and KindAsyncAck. Epochs only move forward on a
	// connection: a sweep for an epoch older than the session's current one
	// is refused (it would feed a drained accumulator), a newer one
	// adopts the new epoch and restarts the sweep count.
	Epoch uint64
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
	// Partial is the worker's contribution to x'M for KindPowerRound:
	// sum over owned rows s of X[s]·row_s, a dense length-NumSites
	// vector.
	Partial []float64
	// DanglingMass is the iterate mass sitting on owned dangling rows,
	// needed centrally for the teleport coefficient.
	DanglingMass float64
	// Missing answers KindLoad: the Cached sites, each at most once,
	// whose digest neither the session nor the cache holds; the
	// coordinator declares again with them in full. MissingChain is the
	// same signal for the site chain.
	Missing      []int
	MissingChain bool
	// X is the iterate after KindBatchRounds ran Rounds power rounds;
	// Residual is the last L1 step size and Converged whether it crossed
	// the tolerance (in which case Rounds may be fewer than asked).
	// Rounds doubles as KindAsyncAck's drained sweep count.
	X         []float64
	Rounds    int
	Residual  float64
	Converged bool
	// Mass is the iterate mass on the worker's owned sites (Σ X[s] over
	// loaded shards), reported by KindAsyncUpdate: asynchronous merges
	// combine partials from different snapshots, so the teleport
	// coefficient needs each contribution's own mass rather than one
	// shared Σx.
	Mass float64
	// Epoch echoes the request's accumulator epoch on KindAsyncUpdate
	// and KindAsyncAck, letting the coordinator discard responses that
	// raced a membership change.
	Epoch uint64
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
// direction owns one scratch buffer of at most retainBytes: the
// per-round SiteRank kinds cross it whole and allocate nothing; a larger
// frame is written through it in pieces and read into a one-shot
// buffer.
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
// when it fits the retained scratch, in scratch-sized pieces otherwise.
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

// digestWriter streams canonical integers and floats into a hash.
type digestWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digestWriter) writeInt(v int) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digestWriter) writeFloat(v float64) {
	binary.LittleEndian.PutUint64(d.buf[:], math.Float64bits(v))
	d.h.Write(d.buf[:])
}

func (d *digestWriter) sum() (out Digest) {
	d.h.Sum(out[:0])
	return out
}

// ContentDigest returns the shard's content address: SHA-256 over the
// document count, edge list and site-chain row in field order. Both ends
// compute it with this function — the coordinator to offer, the worker to
// key its cache — so the value is meaningful across processes and runs.
func (s *SiteShard) ContentDigest() Digest {
	d := digestWriter{h: sha256.New()}
	d.writeInt(s.NumDocs)
	d.writeInt(len(s.Edges))
	for _, e := range s.Edges {
		d.writeInt(e.From)
		d.writeInt(e.To)
		d.writeFloat(e.Weight)
	}
	d.writeInt(len(s.RowCols))
	for _, c := range s.RowCols {
		d.writeInt(c)
	}
	for _, v := range s.RowVals {
		d.writeFloat(v)
	}
	return d.sum()
}

// ContentDigest returns the chain's content address, the analogue of
// SiteShard.ContentDigest for the replicated site chain.
func (c *SiteChain) ContentDigest() Digest {
	d := digestWriter{h: sha256.New()}
	d.writeInt(c.NumSites)
	for _, p := range c.RowPtr {
		d.writeInt(p)
	}
	for _, col := range c.Cols {
		d.writeInt(col)
	}
	for _, v := range c.Vals {
		d.writeFloat(v)
	}
	return d.sum()
}

// DigestInputBytes returns how many bytes ContentDigest feeds through
// SHA-256 for this shard — the basis of the coordinator's digest-work
// accounting (Stats.DigestBytesHashed), which its per-Ranker memo drives
// to zero on warm runs.
func (s *SiteShard) DigestInputBytes() uint64 {
	return 8 * uint64(3+3*len(s.Edges)+2*len(s.RowCols))
}

// DigestInputBytes is the SiteChain analogue of SiteShard.DigestInputBytes.
func (c *SiteChain) DigestInputBytes() uint64 {
	return 8 * uint64(1+len(c.RowPtr)+2*len(c.Cols))
}

// maxDecompressedBytes bounds how far a compressed shard payload may
// expand, keeping a hostile flate stream (a "zip bomb") from claiming
// unbounded memory before shard validation sees it. One GiB sits far
// above any legitimate Load (MaxShardDocs caps the docs a load admits)
// but well below address-space exhaustion, matching the amplification
// stance of the other payload bounds.
const maxDecompressedBytes = 1 << 30

// CompressShards encodes the shard batch exactly as a KindLoad frame
// would carry it and flate-compresses the result, returning the
// compressed stream and the raw (uncompressed) size — the pair the
// coordinator's compression accounting records. Edge lists are
// integer-heavy and highly repetitive, so flate typically shrinks them
// severalfold at BestSpeed.
func CompressShards(shards []SiteShard) (z []byte, rawLen int, err error) {
	var size codec
	size.shards(&shards)
	var zb bytes.Buffer
	fw, err := flate.NewWriter(&zb, flate.BestSpeed)
	if err != nil {
		return nil, 0, fmt.Errorf("wire: flate: %w", err)
	}
	w := codec{mode: writing, b: make([]byte, 0, minScratch), out: fw}
	w.shards(&shards)
	w.flush()
	if w.err != nil {
		return nil, 0, fmt.Errorf("wire: compress shards: %w", w.err)
	}
	if err := fw.Close(); err != nil {
		return nil, 0, fmt.Errorf("wire: compress shards: %w", err)
	}
	return zb.Bytes(), size.n, nil
}

// DecompressShards reverses CompressShards, bounding the decompressed
// size by maxDecompressedBytes so a hostile stream cannot expand without
// limit; the shards are then decoded under the same length checks as a
// frame's.
func DecompressShards(z []byte) ([]SiteShard, error) {
	fr := flate.NewReader(bytes.NewReader(z))
	defer fr.Close()
	raw, err := io.ReadAll(io.LimitReader(fr, maxDecompressedBytes+1))
	if err != nil {
		return nil, fmt.Errorf("wire: decompress shards: %w", err)
	}
	if len(raw) > maxDecompressedBytes {
		return nil, fmt.Errorf("wire: compressed shard payload expands past %d bytes", int64(maxDecompressedBytes))
	}
	r := codec{mode: reading, b: raw}
	var shards []SiteShard
	r.shards(&shards)
	if err := r.finish("compressed shards"); err != nil {
		return nil, err
	}
	return shards, nil
}
