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
// first (a mutation, like Dedupe). The listed positions are the graph's
// own packed base, aliased — read-only, and copied only when rows were
// written since the base was packed — and so are the listed weights when
// the base stores them as float64; 2-byte weights are widened into a
// column of their own, 8 bytes a listed link, and so are the targets,
// from the base's 2-byte distances into 4 bytes a link. The degree column
// is new, one entry per node.
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
		c = Columns{Degrees: make([]uint32, p.rows()), Targets: p.wide(), ListedPos: p.pos, ListedW: p.weights()}
		for i := range c.Degrees {
			c.Degrees[i] = p.off[i+1] - p.off[i]
		}
	}
	return c
}

// FromColumns returns the deduplicated graph whose packed base is c: its
// listed positions themselves, not a copy, so the caller hands them over
// and writes them no more, its listed weights themselves too unless every
// one is matrix.NarrowValue — then they are narrowed to 2 bytes and the
// float64 column is not kept — and its targets narrowed (the 4-byte
// column is not kept either). It checks them first, as DecodeBinary
// checks a graph file's (the one check both share): out-degrees summing
// to the number of targets, every target a node, every row strictly
// ascending (sorted and merged, as a deduplicated graph's rows are),
// listed positions strictly ascending among the targets, one weight per
// listed position, each finite, > 0 and not 1 — and every node's
// out-weight finite, since the transition matrix divides by it. Nothing
// beyond the row offsets and the narrow columns is allocated.
func FromColumns(c Columns) (*Digraph, error) {
	p, err := c.packed()
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
// in the pass that checks them, its listed positions c's own and its
// listed weights at the width their values pick.
func (c Columns) packed() (*packed, error) {
	ne := len(c.Targets)
	if sum := sumUint32(c.Degrees); sum != uint64(ne) || sum > math.MaxUint32 {
		return nil, fmt.Errorf("out-degrees sum to %d, there are %d edge targets (at most 2³²−1)", sum, ne)
	}
	off := make([]uint32, len(c.Degrees)+1)
	for d, k := range c.Degrees {
		off[d+1] = off[d] + k
	}
	n := newNarrower(off, true)
	n.p.to = make([]int16, 0, ne)
	if n.add(c.Targets); n.err != nil {
		return nil, n.err
	}
	if err := checkPositions(c.ListedPos, ne); err != nil {
		return nil, err
	}
	if err := checkWeights(c.ListedPos, c.ListedW); err != nil {
		return nil, err
	}
	p := n.p
	p.pos = c.ListedPos
	p.weigh(c.ListedW)
	p.clip()
	return p, nil
}

// narrower narrows a targets column into a new packed base's 2-byte
// distances as it arrives, a piece at a time or all at once, checking
// each target as FromColumns does: a node, and past its row's previous
// target. The first target that fails is its error — a row not strictly
// ascending only when strict; otherwise such a row clears ascending, and
// the base is merged (packed.merge) once it is whole. After an error it
// narrows nothing more.
type narrower struct {
	p         *packed
	d         int    // the row of the next target
	k         uint32 // the next target's position
	prev      int    // row d's last target so far, −1 before its first
	strict    bool
	ascending bool
	err       error
}

// newNarrower returns a narrower into a base of row offsets off, whose
// targets column the caller allocates.
func newNarrower(off []uint32, strict bool) *narrower {
	return &narrower{p: &packed{off: off}, prev: -1, strict: strict, ascending: true}
}

// add narrows ts, the column's next targets. The degrees the narrower was
// made from count every target it is handed, and more while the column
// is still arriving.
func (n *narrower) add(ts []uint32) {
	off, nd := n.p.off, n.p.rows()
	for len(ts) > 0 && n.err == nil {
		for n.k == off[n.d+1] {
			n.d, n.prev = n.d+1, -1
		}
		part := ts[:min(len(ts), int(off[n.d+1]-n.k))] // the rest of row d in ts
		for _, t := range part {
			to := int(t)
			if to >= nd {
				n.err = fmt.Errorf("edge %d (%d→%d) out of range", n.k, n.d, to)
				return
			}
			if to <= n.prev {
				if n.strict {
					n.err = fmt.Errorf("edge %d (%d→%d) is not past the row's previous target %d", n.k, n.d, to, n.prev)
					return
				}
				n.ascending = false
			}
			n.prev = to
			n.p.push(n.d, t)
			n.k++
		}
		ts = ts[len(part):]
	}
}

// checkPositions checks a base's listed positions, ne links long:
// strictly ascending among the links.
func checkPositions(pos []uint32, ne int) error {
	for e, q := range pos {
		if int(q) >= ne {
			return fmt.Errorf("listed link %d is edge %d of %d", e, q, ne)
		}
		if e > 0 && q <= pos[e-1] {
			return fmt.Errorf("listed link %d is edge %d, not past edge %d", e, q, pos[e-1])
		}
	}
	return nil
}

// checkWeights checks a base's listed weights beside their positions:
// one a position, every one finite, > 0 and not 1.
func checkWeights(pos []uint32, w []float64) error {
	if len(w) != len(pos) {
		return fmt.Errorf("%d listed positions but %d listed weights", len(pos), len(w))
	}
	for e, x := range w {
		if !(x > 0) || math.IsInf(x, 0) || x == 1 {
			return fmt.Errorf("listed edge %d has invalid weight %g", pos[e], x)
		}
	}
	return nil
}

// merge sorts and merges every row of a whole base that is not strictly
// ascending: its targets and listed weights widened into columns of their
// own, mergeRows run over them, and the result narrowed into the base
// again, its listed weights at the width their values pick.
func (p *packed) merge() {
	c := Columns{Targets: p.wide(), ListedPos: p.pos, ListedW: p.weights()}
	c.mergeRows(p.off)
	p.to, p.farPos, p.farTo = p.to[:0], nil, nil
	for d := 0; d < p.rows(); d++ {
		for _, to := range c.Targets[p.off[d]:p.off[d+1]] {
			p.push(d, to)
		}
	}
	p.pos = c.ListedPos
	p.weigh(c.ListedW)
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
