package lmmrank

import (
	"math"

	"lmmrank/internal/lmm"
)

// topkIndex is the incrementally maintained top-k structure of one
// serving snapshot: for every site, the order of its documents under the
// snapshot's warm local solution. Because the Partition Theorem composes
// DocRank as siteWeight(s)·localRank(s), one order per site is valid for
// every site-layer weighting — uniform or personalized — and a query's
// top-k is a lazy threshold merge over the orders instead of a full
// re-rank of all documents.
//
// The index and the local vectors are one unit: order[s] holds local
// positions (4 bytes a document), sorted by locals[s] descending, ties
// toward the lower position, and the merge reads the score as
// locals[s][p] and the document as Site.Docs[p]. A roster is ascending
// in DocID, so that is (score desc, DocID asc) — the order a full sort of
// the composed DocRank visits the site's documents in, since scaling by a
// nonnegative weight cannot invert it. Both are immutable once built;
// an order is valid for exactly the vector it was sorted from, which is
// what lets a patch share it whenever that vector carries over.
type topkIndex struct {
	locals []Vector
	order  [][]uint32
}

// sortSite fills order with a site's local positions in index order:
// score descending, ties toward the lower position. It is an LSD radix
// sort over ^Float64bits(score), one byte a pass, that skips every byte
// all the keys share. Local ranks are nonnegative, so the key ascends as
// the score descends; each pass is stable and the positions start in
// order, so ties stay in position order. −0 is keyed as +0, so that the
// two still tie.
func sortSite(order []uint32, local Vector) {
	for i := range order {
		order[i] = uint32(i)
	}
	n := len(order)
	if n < 2 {
		return
	}
	keys := make([]uint64, n)
	same, diff := ^uint64(0), uint64(0)
	for i, x := range local {
		if x == 0 {
			x = 0 // −0 becomes +0
		}
		k := ^math.Float64bits(x)
		keys[i] = k
		same &= k
		diff |= k
	}
	diff &^= same // the bits on which some keys differ
	out := order
	keys2, order2 := make([]uint64, n), make([]uint32, n)
	for shift := 0; shift < 64; shift += 8 {
		if (diff>>shift)&0xff == 0 {
			continue
		}
		var at [256]int
		for _, k := range keys {
			at[(k>>shift)&0xff]++
		}
		sum := 0
		for b, c := range at {
			at[b] = sum
			sum += c
		}
		for i, k := range keys {
			b := (k >> shift) & 0xff
			keys2[at[b]], order2[at[b]] = k, order[i]
			at[b]++
		}
		keys, keys2 = keys2, keys
		order, order2 = order2, order
	}
	copy(out, order)
}

// patch derives the index over the next snapshot's local solutions (one
// Vector per site, in local-index order): a site whose vector is the very
// one ix sorted (a clean site, carried by pointer across the Update)
// shares its order by pointer; every other site — changed, appended, or
// all of them when ix is nil — is sorted anew into an order of its own,
// across workers goroutines (0 = GOMAXPROCS). An order is its site's
// alone, so a re-sorted site's old one is garbage once the snapshots
// that held it are: no clean site keeps a changed site's stale order
// alive, as one array shared by every site would.
func (ix *topkIndex) patch(locals []Vector, workers int) *topkIndex {
	next := &topkIndex{locals: locals, order: make([][]uint32, len(locals))}
	var stale []int
	for s, v := range locals {
		if ix != nil && s < len(ix.locals) && sameVector(ix.locals[s], v) {
			next.order[s] = ix.order[s]
			continue
		}
		stale = append(stale, s)
	}
	lmm.ForEachParallel(len(stale), workers, func(i int) {
		s := stale[i]
		next.order[s] = make([]uint32, len(locals[s]))
		sortSite(next.order[s], locals[s])
	})
	return next
}

// sameVector reports whether a and b are one vector: the same backing
// array at the same length.
func sameVector(a, b Vector) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// topkCand is one heap candidate: a document with its composed score.
// cont marks the candidate that, once popped, moves its site's cursor to
// posting next.
type topkCand struct {
	score float64
	doc   DocID
	site  int
	next  int
	cont  bool
}

// before is the total order of a full sort: descending composed score,
// ties toward the lower DocID.
func (c topkCand) before(o topkCand) bool {
	if c.score != o.score {
		return c.score > o.score
	}
	return c.doc < o.doc
}

// topkMerge is one query's k-way merge over the index: a binary heap of
// candidates, sifted in place so that a push allocates nothing once the
// heap has room, and the count of candidates pushed.
type topkMerge struct {
	ix      *topkIndex
	dg      *DocGraph
	weights Vector
	heap    []topkCand
	pushes  int
}

func (m *topkMerge) push(c topkCand) {
	m.pushes++
	h := append(m.heap, c)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	m.heap = h
}

func (m *topkMerge) pop() topkCand {
	h := m.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	m.heap = h
	return top
}

// advance pushes site s's candidates from posting i on: as few as keep
// the merge exact. Within a site the composed scores w·local are
// non-increasing along the order (a nonnegative weight cannot invert
// it), so one candidate a site suffices wherever the order is also the
// DocID order among equal composed scores:
//
//   - weight 0 makes every composed score 0, and the site's documents
//     come in roster order, which is DocID order;
//   - a run of bitwise-equal local scores is in position order, which is
//     DocID order too.
//
// Only where floating-point scaling collapses *distinct* local scores
// onto one composed score does the order leave that tie's DocID order
// open; that run goes in whole, the heap comparator orders it, and its
// member with the largest DocID (popped last among the run) carries the
// cursor past it.
func (m *topkMerge) advance(s, i int) {
	order, local := m.ix.order[s], m.ix.locals[s]
	docs := m.dg.Sites[s].Docs
	n, w := len(order), m.weights[s]
	if i >= n {
		return
	}
	if w == 0 {
		m.push(topkCand{score: w * local[i], doc: docs[i], site: s, next: i + 1, cont: true})
		return
	}
	x := local[order[i]]
	p := w * x
	// e ends the run of local scores equal to x, found by bisection: the
	// run can be the whole site.
	e := i + 1
	if e < n && local[order[e]] == x {
		lo, hi := e+1, n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if local[order[mid]] == x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		e = lo
	}
	if e == n || w*local[order[e]] != p {
		m.push(topkCand{score: p, doc: docs[order[i]], site: s, next: i + 1, cont: true})
		return
	}
	j := e + 1
	for j < n && w*local[order[j]] == p {
		j++
	}
	last := i
	for q := i + 1; q < j; q++ {
		if docs[order[q]] > docs[order[last]] {
			last = q
		}
	}
	for q := i; q < j; q++ {
		m.push(topkCand{score: w * local[order[q]], doc: docs[order[q]], site: s, next: j, cont: q == last})
	}
}

// top answers one top-k query from the index: a k-way threshold merge
// of the per-site orders under the query's site weights. The produced
// table is bit-identical — scores, documents and tie order — to
// rankutil.TopK over the fully composed DocRank, at O((S + k)·log S)
// instead of O(N·log N). pushes is the number of candidates the merge
// pushed. k is clamped to the number of documents, as TopDocs clamps it.
func (ix *topkIndex) top(dg *DocGraph, weights Vector, k int) (out []DocScore, pushes int) {
	k = min(k, dg.NumDocs())
	if k <= 0 {
		return nil, 0
	}
	m := topkMerge{ix: ix, dg: dg, weights: weights, heap: make([]topkCand, 0, len(ix.order)+8)}
	for s := range ix.order {
		m.advance(s, 0)
	}
	out = make([]DocScore, 0, k)
	for len(out) < k && len(m.heap) > 0 {
		c := m.pop()
		out = append(out, DocScore{Doc: c.doc, URL: dg.URL(c.doc), Score: c.score})
		if c.cont {
			m.advance(c.site, c.next)
		}
	}
	return out, m.pushes
}
