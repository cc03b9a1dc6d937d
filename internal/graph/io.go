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
	"unicode"
)

// Text format, one record per line:
//
//	# comment
//	site <siteID> <name>
//	doc <docID> <siteID> <url>
//	edge <fromDoc> <toDoc> [weight]
//
// IDs must be dense and ascending within their record type, which keeps the
// format trivially streamable and diff-friendly. A record is split into
// fields at whitespace, so a name or URL is its remaining fields joined by
// single spaces.

// WriteText serializes dg in the text format. It refuses a site name or
// URL that ReadText would not give back unchanged — an empty one, or one
// with whitespace other than single spaces between words — naming the
// site or document.
func WriteText(w io.Writer, dg *DocGraph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# lmmrank docgraph: %d sites, %d docs, %d edges\n",
		dg.NumSites(), dg.NumDocs(), dg.G.NumEdges())
	for s, site := range dg.Sites {
		if !survivesText(site.Name) {
			return fmt.Errorf("graph: site %d: name %q would not read back from the text format", s, site.Name)
		}
		fmt.Fprintf(bw, "site %d %s\n", s, site.Name)
	}
	for d, s := range dg.siteColumn() {
		url := dg.URL(DocID(d))
		if !survivesText(url) {
			return fmt.Errorf("graph: doc %d: URL %q would not read back from the text format", d, url)
		}
		fmt.Fprintf(bw, "doc %d %d %s\n", d, s, url)
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

// survivesText reports whether ReadText gives s back as WriteText writes
// it: non-empty, and equal to its whitespace-separated fields joined by
// single spaces.
func survivesText(s string) bool {
	if !strings.ContainsFunc(s, unicode.IsSpace) {
		return s != ""
	}
	return strings.Join(strings.Fields(s), " ") == s
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
			if err != nil || id != dg.NumDocs() {
				return nil, fmt.Errorf("graph: line %d: doc id %q not dense-ascending", lineNo, fields[1])
			}
			siteID, err := strconv.Atoi(fields[2])
			if err != nil || siteID < 0 || siteID >= len(dg.Sites) {
				return nil, fmt.Errorf("graph: line %d: invalid site id %q", lineNo, fields[2])
			}
			dg.AddDoc(strings.Join(fields[3:], " "), SiteID(siteID))
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
			if nd := dg.NumDocs(); from < 0 || from >= nd || to < 0 || to >= nd {
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
//	byte 0               binaryMagic | binaryVersion
//	6 × uint64           numSites, numDocs, numEdges, numListed, nameBytes,
//	                     urlBytes
//	numSites × uint32    length of each site name
//	nameBytes            the site names back to back
//	numDocs × uint32     site of each document
//	urlBytes             the URLs, front-coded in document order (the
//	                     DocGraph's own arena, see AddDoc): per URL
//	                     uvarint(prefix shared with the previous URL),
//	                     uvarint(length of the rest), then the rest;
//	                     nothing shared at every restartEvery-th URL
//	numDocs × uint32     out-degree of each document
//	numEdges × uint32    edge targets, row after row
//	numListed × uint32   the links whose weight is not 1: their positions
//	                     among the edges, strictly ascending
//	numListed × float64  their weights, IEEE-754 bits verbatim; every
//	                     edge not listed weighs exactly 1
//	uint32               CRC-32C of every byte before it
//
// The magic's high bit keeps the file apart from a text graph (whose
// records all start in ASCII), its nibble from a wire frame. Rows are
// written as stored: unmerged duplicate links are separate entries.
// The checksum detects corruption; it does not authenticate the file.
const (
	binaryMagic     = 0xD0 // high nibble of byte 0
	binaryVersion   = 0x03 // low nibble of byte 0
	binaryHeaderLen = 1 + 6*8

	// readAhead is how far past the bytes actually received a section's
	// buffer may start out; from there it grows to at most eight times
	// what has arrived. A header's counts alone never size an allocation.
	readAhead = 128 << 10
	// pieceBytes sizes the writer's buffer, and the pieces a column's
	// block is converted in on a big-endian host.
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
	c := dg.G.stored()
	// Every count and length but the header's totals is a uint32 in the
	// file, and so is every edge's position.
	lens := make([]uint32, len(dg.Sites))
	nameBytes, widest := 0, max(len(dg.Sites), dg.NumDocs(), len(c.Targets))
	for s, site := range dg.Sites {
		lens[s] = uint32(len(site.Name))
		nameBytes += len(site.Name)
		widest = max(widest, len(site.Name))
	}
	if uint64(widest) > math.MaxUint32 {
		return fmt.Errorf("graph: a count or length of %d does not fit the binary format", widest)
	}

	sum := crc32.New(castagnoli)
	bw := bufio.NewWriterSize(io.MultiWriter(w, sum), pieceBytes)
	// A bufio.Writer's first error sticks and Flush reports it.
	var field [8]byte
	bw.WriteByte(binaryMagic | binaryVersion)
	for _, n := range [...]int{len(dg.Sites), dg.NumDocs(), len(c.Targets), len(c.ListedPos), nameBytes, len(dg.urls)} {
		bw.Write(le.AppendUint64(field[:0], uint64(n)))
	}
	WriteBlock(lens, bw.Write)
	for _, site := range dg.Sites {
		bw.WriteString(site.Name)
	}
	WriteBlock(dg.siteColumn(), bw.Write)
	bw.Write(dg.urls)
	WriteBlock(c.Degrees, bw.Write)
	WriteBlock(c.Targets, bw.Write)
	WriteBlock(c.ListedPos, bw.Write)
	WriteBlock(c.ListedW, bw.Write)
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
	r   io.Reader
	crc uint32
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

// column reads the next n uint32s into a column of exactly n, claimed
// the way section claims its buffer.
func (br *binaryReader) column(n int, what string) ([]uint32, error) {
	col := make([]uint32, 0, min(n, readAhead/4))
	for len(col) < n {
		have := len(col)
		if have == cap(col) {
			col = append(make([]uint32, 0, min(n, 8*have)), col...)
		}
		col = col[:cap(col)]
		if err := ReadBlock(col[have:], func(p []byte) error { return br.fill(p, what) }); err != nil {
			return nil, err
		}
	}
	return col, nil
}

// urlRestarts checks that urls is exactly nd entries, each one whole,
// sharing no more than its predecessor's length and nothing at a restart,
// and returns their restart index.
func urlRestarts(urls []byte, nd int) ([]int, error) {
	restarts := make([]int, 0, (nd+restartEvery-1)/restartEvery)
	p, prev := 0, uint64(0)
	for d := 0; d < nd; d++ {
		if p == len(urls) {
			return nil, fmt.Errorf("graph: binary URL section holds %d URLs, numDocs is %d", d, nd)
		}
		if d%restartEvery == 0 {
			restarts = append(restarts, p)
		}
		shared, suffix, next, err := urlEntry(urls, p)
		switch {
		case err != nil:
			return nil, fmt.Errorf("graph: binary URL %d: %w", d, err)
		case shared != 0 && d%restartEvery == 0:
			return nil, fmt.Errorf("graph: binary URL %d shares %d bytes at a restart", d, shared)
		case shared > prev:
			return nil, fmt.Errorf("graph: binary URL %d shares %d bytes of a %d-byte predecessor", d, shared, prev)
		}
		p, prev = next, shared+uint64(len(suffix))
	}
	// Whole entries past the last are URLs the header does not count;
	// anything else is stray bytes.
	extra := 0
	for q := p; q < len(urls); extra++ {
		_, _, next, err := urlEntry(urls, q)
		if err != nil {
			return nil, fmt.Errorf("graph: binary URL section has %d bytes left over after its %d URLs", len(urls)-p, nd)
		}
		q = next
	}
	if extra > 0 {
		return nil, fmt.Errorf("graph: binary URL section holds %d URLs, numDocs is %d", nd+extra, nd)
	}
	return restarts, nil
}

// sumUint32 adds up a column; at most 2³² entries below 2³² cannot wrap.
func sumUint32(col []uint32) uint64 {
	var sum uint64
	for _, v := range col {
		sum += uint64(v)
	}
	return sum
}

// DecodeBinary reads a graph file, consuming exactly its bytes. Each
// section is checked as it is read, in file order — counts the format
// can index, lengths that agree with the header, site ranges, URL
// entries — then the checksum, then the adjacency's four columns by the
// check FromColumns makes (endpoint ranges, listed positions strictly
// ascending among the edges, listed weights other than 1, positive and
// finite), then Validate; nothing is allocated on the say-so of a count
// whose bytes have not arrived. The site column is read into the site
// rosters and the runs (see DocGraph) and dropped; each roster, the runs
// and the adjacency are built once at their exact size; the URL section,
// every entry checked (urlRestarts), is the graph's URL arena as it
// stands. The adjacency is the file's own columns, each read as a block
// (ReadBlock) into its own array — the targets and listed positions as
// their sections arrive, the listed weights once the positions are in
// (twice their bytes), the out-degrees summed into row offsets — handed
// to the graph as its packed base, the targets narrowed to 2-byte
// distances in the pass that checks them and their 4-byte column
// dropped: no Edge, no per-row header, no per-link weight, and a later
// AddEdge copies the row it appends to (see Digraph). A file whose rows
// are all strictly ascending — any that EncodeBinary wrote from a
// deduplicated graph — is packed as it stands; any other has its rows
// sorted and merged here, before the graph sees them (FromColumns
// refuses such rows). A file of an earlier version is refused, naming
// both versions.
func DecodeBinary(r io.Reader) (*DocGraph, error) {
	br := &binaryReader{r: r}
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
	var counts [6]int
	for i, what := range [...]string{"numSites", "numDocs", "numEdges", "numListed", "nameBytes", "urlBytes"} {
		v := le.Uint64(hdr[1+8*i:])
		// Sixty-four bytes per counted thing must fit an int; sites,
		// documents and edge positions are uint32 in the file besides.
		limit := uint64(math.MaxInt / 64)
		if i < 3 {
			limit = min(limit, math.MaxUint32)
		}
		if v > limit {
			return nil, fmt.Errorf("graph: binary header claims %s = %d, more than this build can index", what, v)
		}
		counts[i] = int(v)
	}
	ns, nd, ne, nl, nameBytes, urlBytes := counts[0], counts[1], counts[2], counts[3], counts[4], counts[5]
	if nl > ne {
		return nil, fmt.Errorf("graph: binary header claims numListed = %d, more than its %d edges", nl, ne)
	}

	lens, err := br.column(ns, "site name lengths")
	if err != nil {
		return nil, err
	}
	if sum := sumUint32(lens); sum != uint64(nameBytes) {
		return nil, fmt.Errorf("graph: binary site name lengths disagree with the header: they sum to %d, nameBytes is %d", sum, nameBytes)
	}
	nameSection, err := br.section(nameBytes, "site names")
	if err != nil {
		return nil, err
	}
	names := string(nameSection)
	sites := make([]Site, ns)
	for s, p := 0, 0; s < ns; s++ {
		n := int(lens[s])
		sites[s].Name = names[p : p+n]
		p += n
	}

	site, err := br.column(nd, "document sites")
	if err != nil {
		return nil, err
	}
	siteSize, nruns := make([]int, ns), 0
	for d, s := range site {
		if uint64(s) >= uint64(ns) {
			return nil, fmt.Errorf("graph: binary doc %d has invalid site %d", d, s)
		}
		siteSize[s]++
		if d == 0 || s != site[d-1] {
			nruns++
		}
	}
	for s, n := range siteSize {
		sites[s].Docs = make([]DocID, 0, n)
	}
	runs := make([]siteRun, 0, nruns)
	for d, s := range site {
		sites[s].Docs = append(sites[s].Docs, DocID(d))
		if d == 0 || s != site[d-1] {
			runs = append(runs, siteRun{uint32(d), s})
		}
	}

	urls, err := br.section(urlBytes, "URLs")
	if err != nil {
		return nil, err
	}
	restarts, err := urlRestarts(urls, nd)
	if err != nil {
		return nil, err
	}

	var c Columns
	if c.Degrees, err = br.column(nd, "out-degrees"); err != nil {
		return nil, err
	}
	if sum := sumUint32(c.Degrees); sum != uint64(ne) {
		return nil, fmt.Errorf("graph: binary out-degrees disagree with the header: they sum to %d, numEdges is %d", sum, ne)
	}
	if c.Targets, err = br.column(ne, "edge targets"); err != nil {
		return nil, err
	}
	// The listed links: positions, then — allocated once the positions
	// are in: twice their bytes — weights.
	if c.ListedPos, err = br.column(nl, "listed positions"); err != nil {
		return nil, err
	}
	c.ListedW = make([]float64, nl)
	if err := ReadBlock(c.ListedW, func(p []byte) error { return br.fill(p, "listed weights") }); err != nil {
		return nil, err
	}

	sum32 := br.crc
	var trailer [4]byte
	if err := br.fill(trailer[:], "checksum"); err != nil {
		return nil, err
	}
	if got := le.Uint32(trailer[:]); got != sum32 {
		return nil, fmt.Errorf("graph: binary checksum mismatch: the file says %08x, its bytes hash to %08x", got, sum32)
	}

	// The columns' own checks are FromColumns', but for one: a row not
	// strictly ascending is sorted and merged here, before the graph sees
	// it, where FromColumns refuses it.
	p, err := c.packed(false)
	if err != nil {
		return nil, fmt.Errorf("graph: binary %w", err)
	}
	dg := &DocGraph{G: &Digraph{base: p, deduped: true}, Sites: sites, runs: runs, urls: urls, restarts: restarts, docs: nd}
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
