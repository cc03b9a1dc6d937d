package graph

import (
	"fmt"
	"math"
)

// Columns is an adjacency in the packed form the graph file stores and a
// distributed shard crosses the wire in: four flat columns, no per-row
// header and no per-link weight.
type Columns struct {
	// Degrees holds each node's out-degree; the node count is its length.
	Degrees []uint32
	// Targets holds every row's targets, row after row.
	Targets []uint32
	// ListedPos and ListedW are the links whose weight is not 1: their
	// positions among Targets, strictly ascending, and their weights.
	// Every link not listed weighs exactly 1.
	ListedPos []uint32
	ListedW   []float64
}

// Columns returns the graph's adjacency as columns, deduplicating it
// first (a mutation, like Dedupe). The targets and listed columns are the
// graph's own packed base, aliased — read-only, and copied only when rows
// were written since the base was packed; the degree column is new, one
// entry per node. A LocalSubgraph is all base, so its columns cost no
// link.
func (g *Digraph) Columns() Columns {
	g.Dedupe()
	return g.stored()
}

// stored returns the rows as they are stored, merged or not, as Columns
// does: the packed base, or a new one once rows were written since.
func (g *Digraph) stored() Columns {
	p := g.base
	if len(g.patch) > 0 || len(g.tail) > 0 {
		p = g.pack()
	}
	var c Columns
	if p != nil {
		c = Columns{Degrees: make([]uint32, p.rows()), Targets: p.to, ListedPos: p.pos, ListedW: p.w}
		for i := range c.Degrees {
			c.Degrees[i] = p.off[i+1] - p.off[i]
		}
	}
	return c
}

// FromColumns returns the deduplicated graph whose packed base is c: the
// columns themselves, not a copy, so the caller hands them over and
// writes them no more. It checks them first, as DecodeBinary checks a
// graph file's (the one check both share): out-degrees summing to the
// number of targets, every target a node, every row strictly ascending
// (sorted and merged, as a deduplicated graph's rows are), listed
// positions strictly ascending among the targets, one weight per listed
// position, each finite, > 0 and not 1 — and every node's out-weight
// finite, since the transition matrix divides by it. Nothing beyond the
// row offsets is allocated.
func FromColumns(c Columns) (*Digraph, error) {
	p, _, err := c.packed(true)
	if err != nil {
		return nil, fmt.Errorf("graph: columns: %w", err)
	}
	g := &Digraph{base: p, deduped: true}
	if g.weightBound() > math.MaxFloat64/2 {
		for i := range c.Degrees {
			if w := g.OutWeight(i); math.IsInf(w, 0) {
				return nil, fmt.Errorf("graph: columns: node %d has out-weight %g", i, w)
			}
		}
	}
	return g, nil
}

// packed checks c and returns it as a packed base over c's own arrays,
// and whether every row is strictly ascending. A row that is not is an
// error when strict is set; otherwise it is reported for the caller to
// merge (mergeRows) before a graph points at the base.
func (c Columns) packed(strict bool) (*packed, bool, error) {
	nd, ne := len(c.Degrees), len(c.Targets)
	if sum := sumUint32(c.Degrees); sum != uint64(ne) || sum > math.MaxUint32 {
		return nil, false, fmt.Errorf("out-degrees sum to %d, there are %d edge targets (at most 2³²−1)", sum, ne)
	}
	p := &packed{off: make([]uint32, nd+1), to: c.Targets, pos: c.ListedPos, w: c.ListedW}
	for d, k := range c.Degrees {
		p.off[d+1] = p.off[d] + k
	}
	ascending := true
	for d := 0; d < nd; d++ {
		prev := -1
		for k := p.off[d]; k < p.off[d+1]; k++ {
			to := int(p.to[k])
			if to >= nd {
				return nil, false, fmt.Errorf("edge %d (%d→%d) out of range", k, d, to)
			}
			if to <= prev {
				if strict {
					return nil, false, fmt.Errorf("edge %d (%d→%d) is not past the row's previous target %d", k, d, to, prev)
				}
				ascending = false
			}
			prev = to
		}
	}
	for e, q := range p.pos {
		if int(q) >= ne {
			return nil, false, fmt.Errorf("listed link %d is edge %d of %d", e, q, ne)
		}
		if e > 0 && q <= p.pos[e-1] {
			return nil, false, fmt.Errorf("listed link %d is edge %d, not past edge %d", e, q, p.pos[e-1])
		}
	}
	if len(p.w) != len(p.pos) {
		return nil, false, fmt.Errorf("%d listed positions but %d listed weights", len(p.pos), len(p.w))
	}
	for e, w := range p.w {
		if !(w > 0) || math.IsInf(w, 0) || w == 1 {
			return nil, false, fmt.Errorf("listed edge %d has invalid weight %g", p.pos[e], w)
		}
	}
	return p, ascending, nil
}
