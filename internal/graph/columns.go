package graph

import (
	"fmt"
	"math"
	"slices"
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
// first (a mutation, like Dedupe). The listed columns are the graph's own
// packed base, aliased — read-only, and copied only when rows were written
// since the base was packed; the targets are widened from the base's
// 2-byte distances into a column of their own, 4 bytes a link, and the
// degree column is new, one entry per node.
func (g *Digraph) Columns() Columns {
	g.Dedupe()
	return g.stored()
}

// stored returns the rows as they are stored, merged or not, as Columns
// does: from the packed base, or a new one once rows were written since.
func (g *Digraph) stored() Columns {
	p := g.base
	if len(g.patch) > 0 || len(g.tail) > 0 {
		p = g.pack()
	}
	var c Columns
	if p != nil {
		c = Columns{Degrees: make([]uint32, p.rows()), Targets: p.wide(), ListedPos: p.pos, ListedW: p.w}
		for i := range c.Degrees {
			c.Degrees[i] = p.off[i+1] - p.off[i]
		}
	}
	return c
}

// FromColumns returns the deduplicated graph whose packed base is c: its
// listed columns themselves, not a copy, so the caller hands them over
// and writes them no more, and its targets narrowed (the 4-byte column is
// not kept). It checks them first, as DecodeBinary checks a graph file's
// (the one check both share): out-degrees summing to the number of
// targets, every target a node, every row strictly ascending (sorted and
// merged, as a deduplicated graph's rows are), listed positions strictly
// ascending among the targets, one weight per listed position, each
// finite, > 0 and not 1 — and every node's out-weight finite, since the
// transition matrix divides by it. Nothing beyond the row offsets and the
// narrow targets is allocated.
func FromColumns(c Columns) (*Digraph, error) {
	p, err := c.packed(true)
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

// packed checks c and returns it as a packed base: its targets narrowed
// in the pass that checks them, its listed columns c's own. A row that is
// not strictly ascending is an error when strict is set; otherwise every
// row is sorted and merged (mergeRows) before the targets are narrowed.
func (c Columns) packed(strict bool) (*packed, error) {
	nd, ne := len(c.Degrees), len(c.Targets)
	if sum := sumUint32(c.Degrees); sum != uint64(ne) || sum > math.MaxUint32 {
		return nil, fmt.Errorf("out-degrees sum to %d, there are %d edge targets (at most 2³²−1)", sum, ne)
	}
	off, dist := make([]uint32, nd+1), make([]int16, ne)
	for d, k := range c.Degrees {
		off[d+1] = off[d] + k
	}
	p := &packed{off: off, to: dist}
	ascending := true
	for d := 0; d < nd; d++ {
		prev, k := -1, off[d]
		for _, t := range c.Targets[k:off[d+1]] {
			to := int(t)
			if to >= nd {
				return nil, fmt.Errorf("edge %d (%d→%d) out of range", k, d, to)
			}
			if to <= prev {
				if strict {
					return nil, fmt.Errorf("edge %d (%d→%d) is not past the row's previous target %d", k, d, to, prev)
				}
				ascending = false
			}
			prev = to
			if x, ok := near(d, t); ok {
				dist[k] = x
			} else {
				p.farPos, p.farTo = append(p.farPos, k), append(p.farTo, t)
			}
			k++
		}
	}
	for e, q := range c.ListedPos {
		if int(q) >= ne {
			return nil, fmt.Errorf("listed link %d is edge %d of %d", e, q, ne)
		}
		if e > 0 && q <= c.ListedPos[e-1] {
			return nil, fmt.Errorf("listed link %d is edge %d, not past edge %d", e, q, c.ListedPos[e-1])
		}
	}
	if len(c.ListedW) != len(c.ListedPos) {
		return nil, fmt.Errorf("%d listed positions but %d listed weights", len(c.ListedPos), len(c.ListedW))
	}
	for e, w := range c.ListedW {
		if !(w > 0) || math.IsInf(w, 0) || w == 1 {
			return nil, fmt.Errorf("listed edge %d has invalid weight %g", c.ListedPos[e], w)
		}
	}
	if !ascending {
		c.mergeRows(p.off)
		p.to, p.farPos, p.farTo = p.to[:0], nil, nil
		for d := 0; d < nd; d++ {
			for _, to := range c.Targets[p.off[d]:p.off[d+1]] {
				p.push(d, to)
			}
		}
	}
	p.pos, p.w = c.ListedPos, c.ListedW
	p.clip()
	return p, nil
}

// mergeRows sorts and merges every row of c where it lies, off being its
// row offsets, and closes the gaps, listing the merged weights afresh and
// moving off to the merged rows. Only for columns no graph points at.
func (c *Columns) mergeRows(off []uint32) {
	pos, w := make([]uint32, 0, len(c.ListedPos)), make([]float64, 0, len(c.ListedW))
	n, e, rows := 0, 0, len(off)-1
	for i := 0; i < rows; i++ {
		a, b := off[i], off[i+1]
		start, end := span(c.ListedPos, e, a, b)
		r := row{to: c.Targets[a:b:b], pos: c.ListedPos[start:end:end], w: c.ListedW[start:end:end], at: a}
		e = end
		r.merge()
		off[i] = uint32(n)
		for _, q := range r.pos {
			pos = append(pos, uint32(n)+q-r.at)
		}
		w = append(w, r.w...)
		n += copy(c.Targets[n:], r.to)
	}
	off[rows] = uint32(n)
	c.Targets, c.ListedPos, c.ListedW = c.Targets[:n], slices.Clip(pos), slices.Clip(w)
}
