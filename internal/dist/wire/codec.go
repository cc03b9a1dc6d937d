package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"

	"lmmrank/internal/graph"
)

// Every message crosses the wire as one self-delimiting frame:
//
//	byte 0     frameMagic | frameVersion
//	byte 1     the Request's Kind, or kindResponse
//	bytes 2-5  payload length, uint32 little-endian
//	payload    the message's fields in the order codec.request /
//	           codec.response walk them
//
// Inside the payload an int is a zigzag varint, a count an unsigned
// varint, a float64 its eight IEEE-754 bytes little-endian, and a
// []float64 a count followed by one block of such floats — float bits
// cross verbatim. A []uint32 — a shard's columns — is fixed-width
// throughout: a uint32 count, then one block. A block is the layout of a
// graph file's columns, and its home is package graph (WriteBlock,
// ReadBlock): on a little-endian host it is its slice's memory, so it
// crosses as one copy each way. A frame carries no state from earlier
// frames, so a proxy may relay one without understanding it.
//
// The version names the protocol's meaning as well as its layout: 2
// renumbered the kinds, 3 made the replicated-chain round batches
// point-Jacobi rounds, 4 retired them with their fields, 5 retired the
// barrier-free sweeps with theirs, 6 made a shard's subgraph the graph's
// packed columns instead of an edge list, 7 retired the compressed shard
// field, so a mixed-build fleet refuses at the first frame instead of
// reducing partials computed by two different round arithmetics, or
// reading one layout as the other.
const (
	frameMagic   = 0xB0 // high nibble of byte 0
	frameVersion = 0x07 // low nibble of byte 0
	headerLen    = 6

	// kindResponse is the header kind of a Response frame; no Request
	// may carry it.
	kindResponse Kind = 0

	// MaxFrameBytes bounds one frame, header included. A length prefix
	// past it is refused before a byte of payload is read, and Encode
	// refuses to send one: what a coordinator ships a single worker in
	// one KindLoad, and the local scores a worker answers with, must
	// each encode under it.
	MaxFrameBytes = 1 << 30

	// retainBytes caps the scratch buffer a Conn keeps per direction:
	// enough for a SiteRank exchange over ~8000 sites, so the per-round
	// kinds cross it whole and never allocate. A larger frame (a shard
	// shipment, a fleet's local scores) is written through it in pieces
	// and read into a one-shot buffer that is garbage once decoded.
	retainBytes = 64 << 10
	minScratch  = 512

	// readChunk is how far ahead of the bytes actually received a
	// one-shot read buffer may grow.
	readChunk = 1 << 20
)

// scratchCap is the capacity to give a scratch that must hold n bytes:
// rounded up, so frames of creeping size do not reallocate it.
func scratchCap(n int) int {
	return max(minScratch, 1<<bits.Len(uint(n-1)))
}

// codec walks a message's fields in wire order, doing one of three
// things to each as it goes — so one walk per type is the encoder, its
// size pre-pass (and the WireSize methods) and the decoder, and the
// three cannot drift apart.
type codec struct {
	mode codecMode
	// n is the byte count so far (measuring).
	n int
	// b is the fixed scratch flushed to out whenever it fills, so a
	// message larger than the scratch goes out in pieces and is never
	// held whole (writing); or the payload not yet consumed (reading).
	b   []byte
	out io.Writer
	// err is the first failure; it sticks. Reads after it yield zeros,
	// writes after it go nowhere, and the caller checks it once.
	err error
}

type codecMode uint8

const (
	measuring codecMode = iota
	writing
	reading
)

func (c *codec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.b = c.b[:0]
}

// flush hands the scratch's contents to out.
func (c *codec) flush() {
	if c.err == nil && len(c.b) > 0 {
		_, c.err = c.out.Write(c.b)
	}
	c.b = c.b[:0]
}

// room makes space in the scratch for k more bytes, k at most
// minScratch.
func (c *codec) room(k int) {
	if len(c.b)+k > cap(c.b) {
		c.flush()
	}
}

// take consumes k payload bytes, or fails the read.
func (c *codec) take(k int) []byte {
	if len(c.b) < k {
		c.fail(io.ErrUnexpectedEOF)
		return nil
	}
	p := c.b[:k]
	c.b = c.b[k:]
	return p
}

func (c *codec) uvarint(p *uint64) {
	switch c.mode {
	case measuring:
		c.n += (bits.Len64(*p|1) + 6) / 7
	case writing:
		c.room(binary.MaxVarintLen64)
		c.b = binary.AppendUvarint(c.b, *p)
	case reading:
		x, k := binary.Uvarint(c.b)
		switch {
		case k > 0:
			c.b = c.b[k:]
		case k == 0:
			c.fail(io.ErrUnexpectedEOF)
		default:
			c.fail(fmt.Errorf("varint overflows 64 bits"))
		}
		*p = x
	}
}

// int is a zigzag varint.
func (c *codec) int(p *int) {
	ux := uint64(*p) << 1
	if *p < 0 {
		ux = ^ux
	}
	c.uvarint(&ux)
	if c.mode == reading {
		x := int64(ux >> 1)
		if ux&1 != 0 {
			x = ^x
		}
		*p = int(x)
	}
}

// fixed writes v as 8 bytes little-endian: a digest's integers.
func (c *codec) fixed(v int) {
	c.room(8)
	c.b = binary.LittleEndian.AppendUint64(c.b, uint64(v))
}

func (c *codec) float(p *float64) {
	switch c.mode {
	case measuring:
		c.n += 8
	case writing:
		c.room(8)
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*p))
	case reading:
		*p = 0
		if b := c.take(8); b != nil {
			*p = math.Float64frombits(binary.LittleEndian.Uint64(b))
		}
	}
}

// noLimit is the bound of a count only the frame's own length limits.
const noLimit = MaxFrameBytes

// count carries a slice length n as a varint. Reading, it returns the
// length read instead, admitted only within limit and only if that many
// elements — of at least minBytes each — fit in what is left of the
// frame, so nothing is allocated that the sender did not pay for in
// bytes.
func (c *codec) count(n int, what string, limit, minBytes int) int {
	un := uint64(n)
	c.uvarint(&un)
	return c.admit(n, un, what, limit, minBytes)
}

// count32 is count with the length carried as a fixed-width uint32.
func (c *codec) count32(n int, what string, limit, minBytes int) int {
	var b []byte
	switch c.mode {
	case measuring:
		c.n += 4
	case writing:
		c.room(4)
		c.b = binary.LittleEndian.AppendUint32(c.b, uint32(n))
	case reading:
		b = c.take(4)
	}
	var un uint64
	if b != nil {
		un = uint64(binary.LittleEndian.Uint32(b))
	}
	return c.admit(n, un, what, limit, minBytes)
}

// admit returns n unless reading, and then the count un read for it, if
// the frame admits it.
func (c *codec) admit(n int, un uint64, what string, limit, minBytes int) int {
	if c.mode != reading {
		return n
	}
	if c.err != nil {
		return 0
	}
	if un > uint64(limit) {
		c.fail(fmt.Errorf("%s count %d exceeds %d", what, un, limit))
		return 0
	}
	if un > uint64(len(c.b)/minBytes) {
		c.fail(io.ErrUnexpectedEOF)
		return 0
	}
	return int(un)
}

// resize returns dst with length n, reusing its array when large enough.
func resize[T any](dst []T, n int) []T {
	if n <= cap(dst) {
		return dst[:n]
	}
	return make([]T, n)
}

// sized carries *p's length and returns *p for the caller to walk;
// reading, it first resizes *p to the length read, reusing its array.
func sized[T any](c *codec, p *[]T, what string, limit, minBytes int) []T {
	n := c.count(len(*p), what, limit, minBytes)
	if c.mode == reading {
		*p = resize(*p, n)
	}
	return *p
}

func (c *codec) ints(p *[]int, what string, limit int) {
	v := sized(c, p, what, limit, 1)
	for i := range v {
		c.int(&v[i])
	}
}

// write puts p in the scratch, or — larger than the scratch — writes it
// straight through, in one Write of its own.
func (c *codec) write(p []byte) (int, error) {
	if len(c.b)+len(p) > cap(c.b) {
		c.flush()
	}
	if len(p) <= cap(c.b) {
		c.b = append(c.b, p...)
	} else if c.err == nil {
		_, c.err = c.out.Write(p)
	}
	return len(p), nil
}

// fill copies the next len(p) payload bytes into p, or zeros it and
// fails the read.
func (c *codec) fill(p []byte) error {
	if b := c.take(len(p)); b != nil {
		copy(p, b)
	} else {
		clear(p)
	}
	return nil
}

// block carries v as one block of size-byte elements, laid out by
// package graph; reading, v already has the length the count admitted.
func block[T uint32 | float64](c *codec, v []T, size int) {
	switch c.mode {
	case measuring:
		c.n += size * len(v)
	case writing:
		graph.WriteBlock(v, c.write)
	case reading:
		graph.ReadBlock(v, c.fill)
	}
}

// floats carries a vector as a count and one block.
func (c *codec) floats(p *[]float64, what string, limit int) {
	n := c.count(len(*p), what, limit, 8)
	if c.mode == reading {
		*p = resize(*p, n)
	}
	block(c, *p, 8)
}

// uint32s carries a column as a uint32 count and one block.
func (c *codec) uint32s(p *[]uint32, what string, limit int) {
	n := c.count32(len(*p), what, limit, 4)
	if c.mode == reading {
		*p = resize(*p, n)
	}
	block(c, *p, 4)
}

func (c *codec) bytes(p *[]byte, what string) {
	n := c.count(len(*p), what, noLimit, 1)
	switch c.mode {
	case measuring:
		c.n += n
	case writing:
		c.write(*p)
	case reading:
		*p = resize(*p, n)
		copy(*p, c.take(n))
	}
}

// str carries a string as bytes do; only error responses have one.
func (c *codec) str(p *string) {
	if c.mode != reading {
		b := []byte(*p)
		c.bytes(&b, "string byte")
		return
	}
	*p = string(c.take(c.count(0, "string byte", noLimit, 1)))
}

func (c *codec) digest(d *Digest) {
	switch c.mode {
	case measuring:
		c.n += len(d)
	case writing:
		c.room(len(d))
		c.b = append(c.b, d[:]...)
	case reading:
		*d = Digest{}
		copy(d[:], c.take(len(d)))
	}
}

// Minimum encoded sizes, the minBytes of the counts below.
const (
	minShardBytes = 1 + 3*4 + 3       // Site, three empty columns, three empty counts
	minRefBytes   = 1 + len(Digest{}) // Site, Digest
	minLocalBytes = 1 + 1 + 1         // Site, an empty count, Iterations
)

func (c *codec) shard(s *SiteShard) {
	c.int(&s.Site)
	c.uint32s(&s.Degrees, "shard document", MaxShardDocs)
	c.uint32s(&s.Targets, "edge target", noLimit)
	c.uint32s(&s.ListedPos, "listed position", noLimit)
	c.floats(&s.ListedW, "listed weight", noLimit)
	c.ints(&s.RowCols, "row column", MaxSites)
	c.floats(&s.RowVals, "row value", MaxSites)
}

func (c *codec) shards(p *[]SiteShard) {
	v := sized(c, p, "shard", MaxSites, minShardBytes)
	for i := range v {
		c.shard(&v[i])
	}
}

func (c *codec) refs(p *[]ShardRef) {
	v := sized(c, p, "cached ref", MaxSites, minRefBytes)
	for i := range v {
		c.int(&v[i].Site)
		c.digest(&v[i].Digest)
	}
}

func (c *codec) request(r *Request) {
	c.shards(&r.Shards)
	c.refs(&r.Cached)
	c.int(&r.NumSites)
	c.float(&r.Damping)
	c.float(&r.Tol)
	c.int(&r.MaxIter)
	c.floats(&r.X, "iterate", MaxSites)
	c.ints(&r.Sites, "site", MaxSites)
}

func (c *codec) response(r *Response) {
	c.str(&r.Err)
	local := sized(c, &r.Local, "local rank", MaxSites, minLocalBytes)
	for i := range local {
		c.int(&local[i].Site)
		c.floats(&local[i].Scores, "local score", MaxShardDocs)
		c.int(&local[i].Iterations)
	}
	c.floats(&r.Partial, "partial", MaxSites)
	c.float(&r.DanglingMass)
	c.ints(&r.Missing, "missing site", MaxSites)
}

// message walks v, a *Request or *Response, checking it against the
// frame kind: the one it will get (measuring, writing — want is
// ignored) or the one it came with (reading).
func (c *codec) message(v any, want Kind) (Kind, error) {
	switch m := v.(type) {
	case *Request:
		if c.mode == reading {
			m.Kind = want
		}
		if m.Kind == kindResponse {
			return 0, fmt.Errorf("wire: kind %d marks a response frame, not a request", kindResponse)
		}
		c.request(m)
		return m.Kind, nil
	case *Response:
		if c.mode == reading && want != kindResponse {
			return 0, fmt.Errorf("wire: request frame (kind %d) where a response was expected", want)
		}
		c.response(m)
		return kindResponse, nil
	default:
		return 0, fmt.Errorf("wire: cannot encode or decode %T (want *Request or *Response)", v)
	}
}

// frameSize measures v's frame: its header kind and payload length.
func frameSize(v any) (Kind, int, error) {
	var size codec
	kind, err := size.message(v, 0)
	if err == nil && headerLen+size.n > MaxFrameBytes {
		err = fmt.Errorf("wire: frame of %d bytes exceeds MaxFrameBytes (%d)", headerLen+size.n, MaxFrameBytes)
	}
	return kind, size.n, err
}

// writeFrame writes the frame frameSize measured to out through scratch
// (length 0, capacity at least minScratch): in one Write when the frame
// fits it.
func writeFrame(out io.Writer, scratch []byte, kind Kind, n int, v any) error {
	w := codec{mode: writing, b: scratch, out: out}
	w.b = append(w.b, frameMagic|frameVersion, byte(kind))
	w.b = binary.LittleEndian.AppendUint32(w.b, uint32(n))
	w.message(v, 0)
	w.flush()
	return w.err
}

// WireSize returns the exact number of payload bytes the shard occupies
// inside a KindLoad frame — the basis of the coordinator's
// bytes-saved-by-cache accounting. It reads the columns' lengths and
// walks only the site-chain row's varints.
func (s *SiteShard) WireSize() uint64 {
	var size codec
	size.shard(s)
	return uint64(size.n)
}

// parseHeader validates a frame header and returns its kind and payload
// length.
func parseHeader(h []byte) (Kind, int, error) {
	if len(h) < headerLen {
		return 0, 0, io.ErrUnexpectedEOF
	}
	if h[0]&0xF0 != frameMagic {
		return 0, 0, fmt.Errorf("wire: bad frame magic 0x%02x (want 0x%02x): the peer does not speak this protocol (a gob-era build?)",
			h[0], frameMagic|frameVersion)
	}
	if v := h[0] & 0x0F; v != frameVersion {
		return 0, 0, fmt.Errorf("wire: frame version %d, this build speaks %d", v, frameVersion)
	}
	n := binary.LittleEndian.Uint32(h[2:])
	if n > MaxFrameBytes-headerLen {
		return 0, 0, fmt.Errorf("wire: frame payload of %d bytes exceeds MaxFrameBytes (%d)", n, MaxFrameBytes)
	}
	return Kind(h[1]), int(n), nil
}

// Frame is one encoded message, header included.
type Frame []byte

// Kind returns the Request kind the frame carries, or 0 for a Response
// frame (and for a frame too short to say).
func (f Frame) Kind() Kind {
	if len(f) < headerLen {
		return kindResponse
	}
	return Kind(f[1])
}

// Decode parses the frame into v, a *Request or *Response matching the
// frame's kind. It reuses the capacity of every slice reachable from v
// and overwrites every field, so decoding into a used value equals
// decoding into a zero one — and whoever still holds a slice of the
// previous contents sees it change: the caller decodes into a fresh
// value whatever it retains (a worker, KindLoad's shards; a
// coordinator, KindRankLocal's scores). Empty slices decode to length
// zero, nil when v's were.
//
// No length prefix is trusted: each is checked against its semantic
// bound (MaxSites, MaxShardDocs) and against the bytes left in the
// frame before anything is allocated, so a decode allocates under 20x
// the frame's length (the worst case, ~13x, is a run of empty local
// ranks; an empty shard costs 16 bytes for its 152). A frame
// that ends early is io.ErrUnexpectedEOF; bytes left over are an error.
// On error v's contents are unspecified.
func (f Frame) Decode(v any) error {
	kind, n, err := parseHeader(f)
	if err != nil {
		return err
	}
	switch {
	case len(f)-headerLen < n:
		return io.ErrUnexpectedEOF
	case len(f)-headerLen > n:
		return fmt.Errorf("wire: %d bytes after the frame's %d-byte payload", len(f)-headerLen-n, n)
	}
	r := codec{mode: reading, b: f[headerLen:]}
	if _, err := r.message(v, kind); err != nil {
		return err
	}
	return r.finish("frame")
}

// finish closes a read: the first failure, or bytes nobody claimed.
func (c *codec) finish(what string) error {
	if c.err != nil {
		return fmt.Errorf("wire: malformed %s: %w", what, c.err)
	}
	if len(c.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes in %s", len(c.b), what)
	}
	return nil
}
