package graph

import (
	"fmt"
	"sort"
)

// SiteGraphOptions controls SiteGraph derivation.
type SiteGraphOptions struct {
	// DropSelfLoops omits intra-site edges from the SiteGraph. The paper
	// counts "the number of outgoing edges from any node in the first site
	// to any node in the second site"; with DropSelfLoops false (the
	// default) the same counting is applied to I = J, so Y_II carries the
	// intra-site link mass — matching the random-surfer reading in which
	// most transitions stay within a site. Setting it true exposes the
	// inter-site-only reading for ablation.
	DropSelfLoops bool
}

// SiteGraph is the paper's G_S(V_S, E_S): one node per Web site, edge
// weights counting the SiteLinks (document-level links aggregated between
// site pairs).
type SiteGraph struct {
	// G holds the site-level link structure; node s corresponds to site
	// SiteID(s) of the originating DocGraph.
	G *Digraph
	// Names holds the site names indexed by SiteID.
	Names []string
}

// NumSites returns the number of sites.
func (sg *SiteGraph) NumSites() int { return len(sg.Names) }

// DeriveSiteGraph aggregates a DocGraph at the Web-site level (§3.2 step
// 2): for each document edge d→d' it adds one unit of weight (times the
// edge multiplicity) to the site edge site(d)→site(d').
//
// Sites are walked by roster and each row is accumulated densely, then
// emitted at its exact length: no per-link append, no sort over document
// links, and no spare capacity for a snapshot to keep alive. A SiteLink
// weight is a sum of link multiplicities — integers, exact in float64 —
// so it does not depend on the order the documents are visited in. It is
// Rederive from the SiteGraph of the empty web, to which every site is
// new.
func DeriveSiteGraph(dg *DocGraph, opts SiteGraphOptions) *SiteGraph {
	return (&SiteGraph{G: new(Digraph)}).Rederive(dg, opts, nil)
}

// Rederive returns the SiteGraph of dg given sg, the SiteGraph of an
// earlier version of the same web derived with the same options: only the
// rows of the changed sites and of sites appended past sg are derived
// afresh, every other row is shared with sg — the packed base by pointer,
// clean overlay rows too, as Digraph.CloneCOW does. Row s aggregates the
// out-links of site s's documents and nothing else, so this is exactly
// DeriveSiteGraph whenever changed lists every site whose documents or
// out-links differ — as DocGraph.ChangedSince's set does.
//
// sg is only read, and its cached transition matrix not even that: a
// straggler query may be building it at this very moment, which is why
// this is not Digraph.CloneCOW.
func (sg *SiteGraph) Rederive(dg *DocGraph, opts SiteGraphOptions, changed []SiteID) *SiteGraph {
	ns := dg.NumSites()
	before := sg.G.NumNodes()
	dirty := make([]bool, ns)
	for _, s := range changed {
		dirty[s] = true
	}
	g := sg.G.cloneOverlay(!sg.G.deduped)
	g.Dedupe()
	g.EnsureNodes(ns)
	next := &SiteGraph{G: g, Names: make([]string, ns)}
	acc := &siteRowAccumulator{weight: make([]float64, ns), runs: newRunIndex(dg)}
	for s, site := range dg.Sites {
		next.Names[s] = site.Name
		if s >= before || dirty[s] {
			g.setRow(s, acc.row(dg, SiteID(s), opts))
		}
	}
	g.repack()
	return next
}

// siteRowAccumulator sums one site's SiteLink weights into a dense row,
// remembering which entries it touched so emitting and clearing the row
// cost O(distinct targets), not O(sites). It reads the document rows
// through one cursor: a roster ascending where the last one ended finds
// each row's listed links with no search.
type siteRowAccumulator struct {
	weight  []float64
	touched []int
	c       cursor
	runs    *runIndex
}

// runIndex finds a document's site by a bucket table over the run starts:
// first[b] is the run holding document b<<shift, so a lookup scans only
// the runs that start inside its bucket — none on a web whose runs are
// longer than a bucket. Buckets are about an eighth of a run's mean
// length: 4 bytes each, at least 8 a run.
type runIndex struct {
	shift uint
	first []uint32
	runs  []siteRun
}

func newRunIndex(dg *DocGraph) *runIndex {
	x := &runIndex{runs: dg.runs}
	for dg.docs>>x.shift > 8*len(dg.runs) {
		x.shift++
	}
	x.first = make([]uint32, dg.docs>>x.shift+2)
	r := 0
	for b := range x.first {
		for r+1 < len(dg.runs) && int(dg.runs[r+1].first) <= b<<x.shift {
			r++
		}
		x.first[b] = uint32(r)
	}
	return x
}

// siteOf is DocGraph.SiteOf for a document of the indexed graph.
func (x *runIndex) siteOf(d uint32) SiteID {
	b := d >> x.shift
	i, last := x.first[b], x.first[b+1]
	for i < last && x.runs[i+1].first <= d {
		i++
	}
	return SiteID(x.runs[i].site)
}

// row derives SiteGraph row s of dg: sorted by target, merged, and exactly
// as long as its content. Most links stay in their site, and most sites
// are one run: a link into the site's first run is counted by one
// compare, any other finds its target's site by the run index.
func (a *siteRowAccumulator) row(dg *DocGraph, s SiteID, opts SiteGraphOptions) row {
	m := dg.member(s)
	for _, d := range dg.Sites[s].Docs {
		r, e := a.c.read(dg.G, int(d)), 0
		for k, t := range r.to {
			w := r.weight(k, &e)
			to := s
			if t-m.lo >= m.n {
				to = a.runs.siteOf(t)
			}
			if opts.DropSelfLoops && to == s {
				continue
			}
			if a.weight[to] == 0 {
				a.touched = append(a.touched, int(to))
			}
			a.weight[to] += w
		}
	}
	sort.Ints(a.touched)
	listed := 0
	for _, to := range a.touched {
		if a.weight[to] != 1 {
			listed++
		}
	}
	out := row{
		to:  make([]uint32, len(a.touched)),
		pos: make([]uint32, 0, listed),
		w:   make([]float64, 0, listed),
	}
	for k, to := range a.touched {
		out.to[k] = uint32(to)
		if w := a.weight[to]; w != 1 {
			out.pos, out.w = append(out.pos, uint32(k)), append(out.w, w)
		}
		a.weight[to] = 0
	}
	a.touched = a.touched[:0]
	return out
}

// SiteLinkCount returns the aggregated SiteLink weight from site a to site
// b (0 when no link exists).
func (sg *SiteGraph) SiteLinkCount(a, b SiteID) float64 {
	var w float64
	sg.G.EachEdge(int(a), func(e Edge) {
		if e.To == int(b) {
			w += e.Weight
		}
	})
	return w
}

// TotalWeight returns the sum of all SiteLink weights, which equals the
// total DocLink weight covered by the aggregation (all edges, or inter-site
// edges only when self-loops were dropped).
func (sg *SiteGraph) TotalWeight() float64 {
	var w float64
	sg.G.EachEdgeAll(func(_ int, e Edge) { w += e.Weight })
	return w
}

// String summarizes the SiteGraph.
func (sg *SiteGraph) String() string {
	return fmt.Sprintf("SiteGraph{%d sites, %d edges, weight %.0f}",
		sg.NumSites(), sg.G.NumEdges(), sg.TotalWeight())
}
