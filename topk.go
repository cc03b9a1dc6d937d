package lmmrank

import (
	"container/heap"
	"sort"
)

// topkSite is one site's posting list in the maintained top-k index:
// the site's documents ordered by descending warm local score, ties
// toward the lower global DocID — exactly the order a full sort of the
// composed DocRank visits them in, because scaling by the site's
// nonnegative weight preserves it. Immutable once built, so snapshots
// may share clean sites' lists by pointer across Updates.
type topkSite struct {
	docs   []DocID
	scores []float64
}

// topkIndex is the incrementally maintained top-k structure of one
// serving snapshot: per-site posting lists over the snapshot's warm
// local solutions. Because the Partition Theorem composes DocRank as
// siteWeight(s)·localRank(s), the lists are valid for every site-layer
// weighting — uniform or personalized — and a query's top-k is a lazy
// threshold merge over them instead of a full re-rank of all documents.
// An Update patches only the dirty sites' lists; clean sites' lists are
// shared with the previous snapshot.
type topkIndex struct {
	sites []*topkSite
}

// buildTopkSite sorts one site's posting list from its roster and warm
// local solution, by (score desc, doc asc) — the rankutil.TopK order.
func buildTopkSite(roster []DocID, local Vector) *topkSite {
	pos := make([]int, len(roster))
	for i := range pos {
		pos[i] = i
	}
	sort.Slice(pos, func(a, b int) bool {
		i, j := pos[a], pos[b]
		if local[i] != local[j] {
			return local[i] > local[j]
		}
		return roster[i] < roster[j]
	})
	st := &topkSite{
		docs:   make([]DocID, len(roster)),
		scores: make([]float64, len(roster)),
	}
	for i, p := range pos {
		st.docs[i] = roster[p]
		st.scores[i] = local[p]
	}
	return st
}

// newTopkIndex builds the full index from a graph and its warm local
// solutions (one Vector per site, in local-index order).
func newTopkIndex(dg *DocGraph, locals []Vector) *topkIndex {
	ix := &topkIndex{sites: make([]*topkSite, len(dg.Sites))}
	for s := range dg.Sites {
		ix.sites[s] = buildTopkSite(dg.Sites[s].Docs, locals[s])
	}
	return ix
}

// patch derives the next snapshot's index after an Update: sites listed
// as changed (and any site whose roster size no longer matches its old
// list — the defensive case of an unlisted grown site) re-sort from the
// new local solution; every other site's list is shared by pointer with
// the previous index. A nil receiver builds everything.
func (ix *topkIndex) patch(dg *DocGraph, locals []Vector, changed map[SiteID]bool) *topkIndex {
	if ix == nil {
		return newTopkIndex(dg, locals)
	}
	next := &topkIndex{sites: make([]*topkSite, len(dg.Sites))}
	for s := range dg.Sites {
		if s < len(ix.sites) && !changed[SiteID(s)] &&
			len(ix.sites[s].docs) == len(dg.Sites[s].Docs) {
			next.sites[s] = ix.sites[s]
			continue
		}
		next.sites[s] = buildTopkSite(dg.Sites[s].Docs, locals[s])
	}
	return next
}

// topkCand is one heap candidate: a document with its composed score.
// cont marks the run member that, once popped, advances its site's
// cursor to the next tie run.
type topkCand struct {
	score float64
	doc   DocID
	site  int
	next  int // cursor after this candidate's tie run (valid when cont)
	cont  bool
}

// topkHeap orders candidates by descending composed score, ties toward
// the lower DocID — the total order of a full sort.
type topkHeap []topkCand

func (h topkHeap) Len() int { return len(h) }
func (h topkHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].doc < h[j].doc
}
func (h topkHeap) Swap(i, j int)        { h[i], h[j] = h[j], h[i] }
func (h *topkHeap) Push(x any)          { *h = append(*h, x.(topkCand)) }
func (h *topkHeap) Pop() any            { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h *topkHeap) pushCand(c topkCand) { heap.Push(h, c) }

// pushRun pushes site s's next tie run starting at position i: every
// consecutive posting whose composed score w·local equals the head's.
// Within a site the composed scores are non-increasing (multiplying a
// descending list by a nonnegative weight cannot invert it), but
// floating-point scaling can collapse *distinct* local scores onto one
// composed score — and a full sort breaks those ties by DocID, an order
// the posting list does not guarantee inside a run. Pushing the whole
// run at once hands the tie-break to the heap comparator; the run
// member with the largest DocID (popped last among the run) carries the
// cursor to the next run.
func (h *topkHeap) pushRun(st *topkSite, s int, i int, w float64) {
	if i >= len(st.docs) {
		return
	}
	p := w * st.scores[i]
	j := i
	maxAt := i
	for j < len(st.docs) && w*st.scores[j] == p {
		if st.docs[j] > st.docs[maxAt] {
			maxAt = j
		}
		j++
	}
	for q := i; q < j; q++ {
		h.pushCand(topkCand{score: p, doc: st.docs[q], site: s, next: j, cont: q == maxAt})
	}
}

// top answers one top-k query from the index: a k-way threshold merge
// of the per-site posting lists under the query's site weights. The
// produced table is bit-identical — scores, documents and tie order —
// to rankutil.TopK over the fully composed DocRank, at O((S + k)·log S)
// instead of O(N·log N).
func (ix *topkIndex) top(dg *DocGraph, weights Vector, k int) []DocScore {
	if k <= 0 {
		return nil
	}
	// Successive heap pushes keep the invariant from an empty heap, so
	// seeding and merging use the same path.
	h := make(topkHeap, 0, len(ix.sites)+8)
	for s, st := range ix.sites {
		h.pushRun(st, s, 0, weights[s])
	}
	out := make([]DocScore, 0, k)
	for len(out) < k && h.Len() > 0 {
		c := heap.Pop(&h).(topkCand)
		out = append(out, DocScore{Doc: c.doc, URL: dg.URL(c.doc), Score: c.score})
		if c.cont {
			h.pushRun(ix.sites[c.site], c.site, c.next, weights[c.site])
		}
	}
	return out
}
