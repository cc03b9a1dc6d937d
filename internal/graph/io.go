package graph

import (
	"bufio"
	"encoding/gob"
	"fmt"
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

// gobGraph is the wire form of a DocGraph: adjacency flattened into
// parallel slices so the gob payload stays compact.
type gobGraph struct {
	Docs      []Doc
	SiteNames []string
	From, To  []int32
	Weight    []float64
}

// EncodeGob writes dg in a compact binary form.
func EncodeGob(w io.Writer, dg *DocGraph) error {
	gg := gobGraph{Docs: dg.Docs, SiteNames: make([]string, len(dg.Sites))}
	for s, site := range dg.Sites {
		gg.SiteNames[s] = site.Name
	}
	n := dg.G.NumEdges()
	gg.From = make([]int32, 0, n)
	gg.To = make([]int32, 0, n)
	gg.Weight = make([]float64, 0, n)
	dg.G.EachEdgeAll(func(from int, e Edge) {
		gg.From = append(gg.From, int32(from))
		gg.To = append(gg.To, int32(e.To))
		gg.Weight = append(gg.Weight, e.Weight)
	})
	if err := gob.NewEncoder(w).Encode(&gg); err != nil {
		return fmt.Errorf("graph: gob encode: %w", err)
	}
	return nil
}

// DecodeGob reads a DocGraph written by EncodeGob. Everything is checked
// before the graph is assembled, then each site roster and the whole
// adjacency are allocated once at their exact size: every node's row is a
// capacity-clipped window of one slab (as in LocalSubgraph), so a later
// AddEdge reallocates that row instead of writing into its neighbour's.
func DecodeGob(r io.Reader) (*DocGraph, error) {
	var gg gobGraph
	if err := gob.NewDecoder(r).Decode(&gg); err != nil {
		return nil, fmt.Errorf("graph: gob decode: %w", err)
	}
	nd := len(gg.Docs)
	siteSize := make([]int, len(gg.SiteNames))
	for d, doc := range gg.Docs {
		if int(doc.Site) < 0 || int(doc.Site) >= len(siteSize) {
			return nil, fmt.Errorf("graph: gob doc %d has invalid site %d", d, doc.Site)
		}
		siteSize[doc.Site]++
	}
	if len(gg.From) != len(gg.To) || len(gg.From) != len(gg.Weight) {
		return nil, fmt.Errorf("graph: gob edge slices disagree: %d/%d/%d",
			len(gg.From), len(gg.To), len(gg.Weight))
	}
	deg := make([]int, nd)
	for k := range gg.From {
		from, to := int(gg.From[k]), int(gg.To[k])
		if from < 0 || from >= nd || to < 0 || to >= nd {
			return nil, fmt.Errorf("graph: gob edge %d (%d→%d) out of range", k, from, to)
		}
		if w := gg.Weight[k]; !(w > 0) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("graph: gob edge %d has invalid weight %g", k, gg.Weight[k])
		}
		deg[from]++
	}

	dg := &DocGraph{
		G:     NewDigraph(nd),
		Docs:  gg.Docs,
		Sites: make([]Site, len(gg.SiteNames)),
	}
	for s, name := range gg.SiteNames {
		dg.Sites[s] = Site{Name: name, Docs: make([]DocID, 0, siteSize[s])}
	}
	for d, doc := range dg.Docs {
		dg.Sites[doc.Site].Docs = append(dg.Sites[doc.Site].Docs, DocID(d))
	}
	slab := make([]Edge, len(gg.From))
	p := 0
	for d, n := range deg {
		dg.G.out[d] = slab[p : p : p+n]
		p += n
	}
	for k, from := range gg.From {
		dg.G.out[from] = append(dg.G.out[from], Edge{To: int(gg.To[k]), Weight: gg.Weight[k]})
	}
	dg.G.Dedupe()
	if err := dg.Validate(); err != nil {
		return nil, err
	}
	return dg, nil
}
