package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strconv"
	"strings"
)

// Text format, one record per line:
//
//	# comment
//	site <siteID> <name>
//	doc <docID> <siteID> <url>
//	edge <fromDoc> <toDoc> [weight]
//
// IDs must be dense and ascending within their record type, which keeps the
// format trivially streamable and diff-friendly.

// WriteText serializes dg in the text format.
func WriteText(w io.Writer, dg *DocGraph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# lmmrank docgraph: %d sites, %d docs, %d edges\n",
		dg.NumSites(), dg.NumDocs(), dg.G.NumEdges())
	for s, site := range dg.Sites {
		fmt.Fprintf(bw, "site %d %s\n", s, site.Name)
	}
	for d, doc := range dg.Docs {
		fmt.Fprintf(bw, "doc %d %d %s\n", d, doc.Site, doc.URL)
	}
	var werr error
	dg.G.EachEdgeAll(func(from int, e Edge) {
		if werr != nil {
			return
		}
		if e.Weight == 1 {
			_, werr = fmt.Fprintf(bw, "edge %d %d\n", from, e.To)
		} else {
			_, werr = fmt.Fprintf(bw, "edge %d %d %g\n", from, e.To, e.Weight)
		}
	})
	if werr != nil {
		return fmt.Errorf("graph: writing edges: %w", werr)
	}
	return bw.Flush()
}

// ReadText parses the text format back into a DocGraph.
func ReadText(r io.Reader) (*DocGraph, error) {
	dg := &DocGraph{G: NewDigraph(0)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "site":
			if len(fields) < 3 {
				return nil, fmt.Errorf("graph: line %d: site needs id and name", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id != len(dg.Sites) {
				return nil, fmt.Errorf("graph: line %d: site id %q not dense-ascending", lineNo, fields[1])
			}
			name := strings.Join(fields[2:], " ")
			dg.Sites = append(dg.Sites, Site{Name: name})
		case "doc":
			if len(fields) < 4 {
				return nil, fmt.Errorf("graph: line %d: doc needs id, site and url", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id != len(dg.Docs) {
				return nil, fmt.Errorf("graph: line %d: doc id %q not dense-ascending", lineNo, fields[1])
			}
			siteID, err := strconv.Atoi(fields[2])
			if err != nil || siteID < 0 || siteID >= len(dg.Sites) {
				return nil, fmt.Errorf("graph: line %d: invalid site id %q", lineNo, fields[2])
			}
			url := strings.Join(fields[3:], " ")
			d := DocID(len(dg.Docs))
			dg.Docs = append(dg.Docs, Doc{URL: url, Site: SiteID(siteID)})
			dg.Sites[siteID].Docs = append(dg.Sites[siteID].Docs, d)
			dg.G.EnsureNodes(len(dg.Docs))
		case "edge":
			if len(fields) < 3 {
				return nil, fmt.Errorf("graph: line %d: edge needs from and to", lineNo)
			}
			from, err1 := strconv.Atoi(fields[1])
			to, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge endpoints", lineNo)
			}
			w := 1.0
			if len(fields) >= 4 {
				var err error
				w, err = strconv.ParseFloat(fields[3], 64)
				if err != nil || !(w > 0) || math.IsInf(w, 0) {
					return nil, fmt.Errorf("graph: line %d: bad edge weight %q", lineNo, fields[3])
				}
			}
			if from < 0 || from >= len(dg.Docs) || to < 0 || to >= len(dg.Docs) {
				return nil, fmt.Errorf("graph: line %d: edge (%d→%d) references unknown doc", lineNo, from, to)
			}
			dg.G.AddEdge(from, to, w)
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading: %w", err)
	}
	dg.G.Dedupe()
	if err := dg.Validate(); err != nil {
		return nil, err
	}
	return dg, nil
}

// The graph file — what EncodeBinary writes and DecodeBinary reads — is
// columnar, fixed-width and little-endian, so reading it is a few large
// reads rather than one decode step per number:
//
//	byte 0              binaryMagic | binaryVersion
//	5 × uint64          numSites, numDocs, numEdges, nameBytes, urlBytes
//	numSites × uint32   length of each site name
//	nameBytes           the site names back to back
//	numDocs × uint32    site of each document
//	numDocs × uint32    length of each URL
//	urlBytes            the URLs back to back
//	numDocs × uint32    out-degree of each document
//	numEdges × uint32   edge targets, row after row
//	numEdges × float64  edge weights in the same order, IEEE-754 bits verbatim
//	uint32              CRC-32C of every byte before it
//
// The magic's high bit keeps the file apart from a text graph (whose
// records all start in ASCII), its nibble from a wire frame. Rows are
// written as stored: unmerged duplicate links are separate entries.
// The checksum detects corruption; it does not authenticate the file.
const (
	binaryMagic     = 0xD0 // high nibble of byte 0
	binaryVersion   = 0x01 // low nibble of byte 0
	binaryHeaderLen = 1 + 5*8

	// readAhead is how far past the bytes actually received a section's
	// buffer may start out; from there it grows to at most eight times
	// what has arrived. A header's counts alone never size an allocation.
	readAhead = 128 << 10
	// pieceBytes sizes the scratch the URL block and the edge columns
	// stream through, and so the arena chunk a run of URLs shares: keeping
	// one Doc.URL alive pins at most this much (or that one URL, if longer).
	pieceBytes = 64 << 10
)

var (
	le         = binary.LittleEndian
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// EncodeBinary writes dg as a graph file.
func EncodeBinary(w io.Writer, dg *DocGraph) error {
	if err := dg.Validate(); err != nil {
		return err
	}
	// Every count and length but the header's totals is a uint32 in the file.
	var nameBytes, urlBytes uint64
	widest := max(len(dg.Sites), len(dg.Docs))
	for _, site := range dg.Sites {
		nameBytes += uint64(len(site.Name))
		widest = max(widest, len(site.Name))
	}
	for _, doc := range dg.Docs {
		urlBytes += uint64(len(doc.URL))
		widest = max(widest, len(doc.URL))
	}
	nd := dg.G.NumNodes()
	for d := 0; d < nd; d++ {
		widest = max(widest, dg.G.degree(d))
	}
	if uint64(widest) > math.MaxUint32 {
		return fmt.Errorf("graph: a count or length of %d does not fit the binary format", widest)
	}

	sum := crc32.New(castagnoli)
	bw := bufio.NewWriterSize(io.MultiWriter(w, sum), pieceBytes)
	// A bufio.Writer's first error sticks and Flush reports it.
	var field [8]byte
	u32 := func(v uint32) { bw.Write(le.AppendUint32(field[:0], v)) }
	u64 := func(v uint64) { bw.Write(le.AppendUint64(field[:0], v)) }
	bw.WriteByte(binaryMagic | binaryVersion)
	u64(uint64(len(dg.Sites)))
	u64(uint64(len(dg.Docs)))
	u64(uint64(dg.G.NumEdges()))
	u64(nameBytes)
	u64(urlBytes)
	for _, site := range dg.Sites {
		u32(uint32(len(site.Name)))
	}
	for _, site := range dg.Sites {
		bw.WriteString(site.Name)
	}
	for _, doc := range dg.Docs {
		u32(uint32(doc.Site))
	}
	for _, doc := range dg.Docs {
		u32(uint32(len(doc.URL)))
	}
	for _, doc := range dg.Docs {
		bw.WriteString(doc.URL)
	}
	for d := 0; d < nd; d++ {
		u32(uint32(dg.G.degree(d)))
	}
	for d := 0; d < nd; d++ {
		tos, _ := dg.G.row(d)
		for _, to := range tos {
			u32(to)
		}
	}
	for d := 0; d < nd; d++ {
		_, ws := dg.G.row(d)
		for _, w := range ws {
			u64(math.Float64bits(w))
		}
	}
	err := bw.Flush()
	if err == nil {
		_, err = w.Write(le.AppendUint32(field[:0], sum.Sum32()))
	}
	if err != nil {
		return fmt.Errorf("graph: writing binary graph: %w", err)
	}
	return nil
}

// binaryReader reads a graph file's sections off r, checksumming them.
type binaryReader struct {
	r     io.Reader
	crc   uint32
	piece []byte
}

// fill reads exactly len(p) bytes of the section called what.
func (br *binaryReader) fill(p []byte, what string) error {
	if _, err := io.ReadFull(br.r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("graph: binary %s: %w", what, err)
	}
	br.crc = crc32.Update(br.crc, castagnoli, p)
	return nil
}

// section reads the next n bytes into a buffer of their own, claimed as
// they arrive: readAhead to begin with, then up to eight times what has
// been received, so a section that is all there costs a few reads and a
// truncated one never more memory than a small multiple of its bytes.
func (br *binaryReader) section(n int, what string) ([]byte, error) {
	b := make([]byte, 0, min(n, readAhead))
	for len(b) < n {
		have := len(b)
		m := min(n-have, max(readAhead, 7*have))
		if have+m > cap(b) {
			b = append(make([]byte, 0, have+m), b...)
		}
		b = b[:have+m]
		if err := br.fill(b[have:], what); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// column reads the next n uint32s through the scratch piece into a
// column of exactly n, claimed the way section claims its buffer.
func (br *binaryReader) column(n int, what string) ([]uint32, error) {
	col := make([]uint32, 0, min(n, readAhead/4))
	for len(col) < n {
		if len(col) == cap(col) {
			col = append(make([]uint32, 0, min(n, 8*len(col))), col...)
		}
		b := br.piece[:4*min(cap(col)-len(col), pieceBytes/4)]
		if err := br.fill(b, what); err != nil {
			return nil, err
		}
		for ; len(b) > 0; b = b[4:] {
			col = append(col, le.Uint32(b))
		}
	}
	return col, nil
}

// text reads the next n bytes as one string.
func (br *binaryReader) text(n int, what string) (string, error) {
	b := br.piece
	if n > len(b) {
		var err error
		if b, err = br.section(n, what); err != nil {
			return "", err
		}
	} else if err := br.fill(b[:n], what); err != nil {
		return "", err
	}
	return string(b[:n]), nil
}

// sumUint32 adds up a column; at most 2³² entries below 2³² cannot wrap.
func sumUint32(col []byte) uint64 {
	var sum uint64
	for i := 0; i+4 <= len(col); i += 4 {
		sum += uint64(le.Uint32(col[i:]))
	}
	return sum
}

// DecodeBinary reads a graph file, consuming exactly its bytes. Each
// section is checked as it is read, in file order — counts the format
// can index, lengths that agree with the header, site and endpoint
// ranges, weights positive and finite — then the checksum, then
// Validate; nothing is allocated on the say-so of a count whose bytes
// have not arrived. Docs, each site roster and the adjacency are built
// once at their exact size, and URLs are substrings of arena chunks of
// about pieceBytes. The adjacency is the file's own three columns — the
// out-degrees summed into row offsets, the targets filled as their
// section arrives, the weights (allocated once the targets are in: twice
// their bytes) through the scratch piece — handed to the graph as its
// packed base: no Edge, no per-row header, and a later AddEdge copies the
// row it appends to (see Digraph). A file whose rows are all strictly
// ascending — any that EncodeBinary wrote from a deduplicated graph — is
// packed as it stands; any other has its rows sorted and merged here,
// before the graph sees them.
func DecodeBinary(r io.Reader) (*DocGraph, error) {
	br := &binaryReader{r: r, piece: make([]byte, pieceBytes)}
	var hdr [binaryHeaderLen]byte
	if err := br.fill(hdr[:1], "header"); err != nil {
		return nil, err
	}
	if m := hdr[0] & 0xF0; m != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic 0x%02x (want 0x%02x): not a binary graph file", m, binaryMagic)
	}
	if v := hdr[0] & 0x0F; v != binaryVersion {
		return nil, fmt.Errorf("graph: binary graph file version %d, this build reads %d", v, binaryVersion)
	}
	if err := br.fill(hdr[1:], "header"); err != nil {
		return nil, err
	}
	var counts [5]int
	for i, what := range [...]string{"numSites", "numDocs", "numEdges", "nameBytes", "urlBytes"} {
		v := le.Uint64(hdr[1+8*i:])
		// Sixty-four bytes per counted thing must fit an int; sites and
		// documents are uint32 in the file besides.
		limit := uint64(math.MaxInt / 64)
		if i < 2 {
			limit = min(limit, math.MaxUint32)
		}
		if v > limit {
			return nil, fmt.Errorf("graph: binary header claims %s = %d, more than this build can index", what, v)
		}
		counts[i] = int(v)
	}
	ns, nd, ne, nameBytes, urlBytes := counts[0], counts[1], counts[2], counts[3], counts[4]

	lens, err := br.section(4*ns, "site name lengths")
	if err != nil {
		return nil, err
	}
	if sum := sumUint32(lens); sum != uint64(nameBytes) {
		return nil, fmt.Errorf("graph: binary site name lengths disagree with the header: they sum to %d, nameBytes is %d", sum, nameBytes)
	}
	names, err := br.text(nameBytes, "site names")
	if err != nil {
		return nil, err
	}
	sites := make([]Site, ns)
	for s, p := 0, 0; s < ns; s++ {
		n := int(le.Uint32(lens[4*s:]))
		sites[s].Name = names[p : p+n]
		p += n
	}

	col, err := br.section(4*nd, "document sites")
	if err != nil {
		return nil, err
	}
	siteSize := make([]int, ns)
	for d := 0; d < nd; d++ {
		s := le.Uint32(col[4*d:])
		if uint64(s) >= uint64(ns) {
			return nil, fmt.Errorf("graph: binary doc %d has invalid site %d", d, s)
		}
		siteSize[s]++
	}
	docs := make([]Doc, nd)
	for s, n := range siteSize {
		sites[s].Docs = make([]DocID, 0, n)
	}
	for d := range docs {
		s := SiteID(le.Uint32(col[4*d:]))
		docs[d].Site = s
		sites[s].Docs = append(sites[s].Docs, DocID(d))
	}

	if lens, err = br.section(4*nd, "URL lengths"); err != nil {
		return nil, err
	}
	if sum := sumUint32(lens); sum != uint64(urlBytes) {
		return nil, fmt.Errorf("graph: binary URL lengths disagree with the header: they sum to %d, urlBytes is %d", sum, urlBytes)
	}
	for d := 0; d < nd; {
		// One arena chunk: the run of URLs from d that fits a piece (at
		// least one, so a longer URL gets a chunk to itself).
		end, n := d, 0
		for end < nd && (end == d || n+int(le.Uint32(lens[4*end:])) <= pieceBytes) {
			n += int(le.Uint32(lens[4*end:]))
			end++
		}
		chunk, err := br.text(n, "URLs")
		if err != nil {
			return nil, err
		}
		for p := 0; d < end; d++ {
			l := int(le.Uint32(lens[4*d:]))
			docs[d].URL = chunk[p : p+l]
			p += l
		}
	}

	deg, err := br.section(4*nd, "out-degrees")
	if err != nil {
		return nil, err
	}
	if sum := sumUint32(deg); sum != uint64(ne) {
		return nil, fmt.Errorf("graph: binary out-degrees disagree with the header: they sum to %d, numEdges is %d", sum, ne)
	}
	p := &packed{off: make([]int, nd+1)}
	for d := 0; d < nd; d++ {
		p.off[d+1] = p.off[d] + int(le.Uint32(deg[4*d:]))
	}
	if p.to, err = br.column(ne, "edge targets"); err != nil {
		return nil, err
	}
	ascending := true
	for d := 0; d < nd; d++ {
		prev := -1
		for k := p.off[d]; k < p.off[d+1]; k++ {
			to := int(p.to[k])
			if to >= nd {
				return nil, fmt.Errorf("graph: binary edge %d (%d→%d) out of range", k, d, to)
			}
			if to <= prev {
				ascending = false
			}
			prev = to
		}
	}
	// The targets have arrived: the weights are at most twice their bytes.
	p.w = make([]float64, ne)
	for k := 0; k < ne; {
		b := br.piece[:8*min(ne-k, pieceBytes/8)]
		if err := br.fill(b, "edge weights"); err != nil {
			return nil, err
		}
		for ; len(b) > 0; b, k = b[8:], k+1 {
			w := math.Float64frombits(le.Uint64(b))
			if !(w > 0) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("graph: binary edge %d has invalid weight %g", k, w)
			}
			p.w[k] = w
		}
	}

	sum := br.crc
	var trailer [4]byte
	if err := br.fill(trailer[:], "checksum"); err != nil {
		return nil, err
	}
	if got := le.Uint32(trailer[:]); got != sum {
		return nil, fmt.Errorf("graph: binary checksum mismatch: the file says %08x, its bytes hash to %08x", got, sum)
	}

	// Strictly ascending rows are sorted and merged as they stand.
	if !ascending {
		p.mergeRows()
	}
	dg := &DocGraph{G: &Digraph{base: p, deduped: true}, Docs: docs, Sites: sites}
	if err := dg.Validate(); err != nil {
		return nil, err
	}
	return dg, nil
}

// Read parses a graph in either format, told apart by its first byte: a
// graph file opens with binaryMagic, a text record with an ASCII byte.
func Read(r io.Reader) (*DocGraph, error) {
	br := bufio.NewReader(r)
	first, err := br.Peek(1)
	if err == io.EOF {
		return nil, fmt.Errorf("graph: empty input")
	}
	if err != nil {
		return nil, fmt.Errorf("graph: reading: %w", err)
	}
	if first[0]&0xF0 == binaryMagic {
		return DecodeBinary(br)
	}
	return ReadText(br)
}
