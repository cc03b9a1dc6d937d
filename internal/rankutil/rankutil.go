// Package rankutil provides ranking comparison utilities used by the
// evaluation harness: top-k extraction, rank-correlation coefficients
// (Kendall tau, Spearman rho and footrule), overlap measures, and the spam
// contamination metric that quantifies the paper's Figure 3 vs Figure 4
// comparison.
package rankutil

import (
	"fmt"
	"math"
	"slices"
)

// Entry pairs an item index with its score.
type Entry struct {
	Index int
	Score float64
}

// TopK returns the k highest-scoring indices in descending score order,
// ties broken toward the lower index (deterministic across runs). k is
// clamped to len(scores). A k that is a small share of the scores is
// selected through a bounded heap, in O(N·log k); a larger one sorts
// every index.
func TopK(scores []float64, k int) []Entry {
	k = min(k, len(scores))
	if k <= 0 {
		return nil
	}
	var idx []int
	if k <= len(scores)/heapShare {
		idx = selectTop(scores, k)
	} else {
		idx = make([]int, len(scores))
		for i := range idx {
			idx[i] = i
		}
	}
	// The order is total — score descending, then index ascending — so an
	// unstable sort gives what a stable one would.
	slices.SortFunc(idx, func(a, b int) int {
		switch {
		case before(scores, a, b):
			return -1
		case before(scores, b, a):
			return 1
		}
		return 0
	})
	out := make([]Entry, k)
	for i := range out {
		out[i] = Entry{Index: idx[i], Score: scores[idx[i]]}
	}
	return out
}

// heapShare is the share of the scores below which TopK selects through a
// heap rather than sorting them all: 1/heapShare of N.
const heapShare = 8

// before reports whether item a ranks ahead of item b: a higher score, or
// an equal one at a lower index.
func before(scores []float64, a, b int) bool {
	if x, y := scores[a], scores[b]; x != y {
		return x > y
	}
	return a < b
}

// selectTop returns the indices of the k items that rank first, in no
// particular order: a heap of the best k seen so far, the one that ranks
// last at its root, which each later item replaces if it ranks ahead.
func selectTop(scores []float64, k int) []int {
	h := make([]int, 0, k)
	for i := range scores {
		if len(h) < k {
			h = append(h, i)
			for c := len(h) - 1; c > 0; {
				p := (c - 1) / 2
				if !before(scores, h[p], h[c]) {
					break
				}
				h[p], h[c] = h[c], h[p]
				c = p
			}
			continue
		}
		if !before(scores, i, h[0]) {
			continue
		}
		h[0] = i
		for p := 0; ; {
			c := 2*p + 1
			if c >= k {
				break
			}
			if r := c + 1; r < k && before(scores, h[c], h[r]) {
				c = r
			}
			if !before(scores, h[p], h[c]) {
				break
			}
			h[p], h[c] = h[c], h[p]
			p = c
		}
	}
	return h
}

// Ranks converts scores into 0-based rank positions (rank[i] = position of
// item i when sorted by descending score, ties toward lower index).
func Ranks(scores []float64) []int {
	top := TopK(scores, len(scores))
	ranks := make([]int, len(scores))
	for pos, e := range top {
		ranks[e.Index] = pos
	}
	return ranks
}

// KendallTau computes the Kendall rank-correlation coefficient τ between
// two score vectors over the same items: +1 for identical orders, −1 for
// reversed orders. Ties are handled by the tau-b correction. It panics on
// length mismatch; it returns 0 for fewer than 2 items.
func KendallTau(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("rankutil: KendallTau length mismatch %d vs %d", len(a), len(b)))
	}
	n := len(a)
	if n < 2 {
		return 0
	}
	var concordant, discordant, tiesA, tiesB float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			da := a[i] - a[j]
			db := b[i] - b[j]
			switch {
			case da == 0 && db == 0:
				// Tied in both: excluded from all counts.
			case da == 0:
				tiesA++
			case db == 0:
				tiesB++
			case (da > 0) == (db > 0):
				concordant++
			default:
				discordant++
			}
		}
	}
	denom := (concordant + discordant + tiesA) * (concordant + discordant + tiesB)
	if denom == 0 {
		return 0
	}
	return (concordant - discordant) / math.Sqrt(denom)
}

// SpearmanRho computes Spearman's rank correlation: Pearson correlation of
// the two rank vectors. It panics on length mismatch and returns 0 for
// fewer than 2 items.
func SpearmanRho(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("rankutil: SpearmanRho length mismatch %d vs %d", len(a), len(b)))
	}
	n := len(a)
	if n < 2 {
		return 0
	}
	ra, rb := Ranks(a), Ranks(b)
	mean := float64(n-1) / 2
	var cov, varA, varB float64
	for i := 0; i < n; i++ {
		da := float64(ra[i]) - mean
		db := float64(rb[i]) - mean
		cov += da * db
		varA += da * da
		varB += db * db
	}
	if varA == 0 || varB == 0 {
		return 0
	}
	return cov / math.Sqrt(varA*varB)
}

// SpearmanFootrule computes the normalized Spearman footrule distance
// between the orders induced by two score vectors: Σ|rank_a(i) −
// rank_b(i)| divided by its maximum (n²/2 for even n, (n²−1)/2 for odd), so
// 0 means identical orders and 1 maximally displaced.
func SpearmanFootrule(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("rankutil: SpearmanFootrule length mismatch %d vs %d", len(a), len(b)))
	}
	n := len(a)
	if n < 2 {
		return 0
	}
	ra, rb := Ranks(a), Ranks(b)
	var sum float64
	for i := 0; i < n; i++ {
		d := ra[i] - rb[i]
		if d < 0 {
			d = -d
		}
		sum += float64(d)
	}
	max := float64(n*n) / 2
	if n%2 == 1 {
		max = float64(n*n-1) / 2
	}
	return sum / max
}

// OverlapAtK returns |topK(a) ∩ topK(b)| / k, the fraction of shared items
// among the two top-k lists.
func OverlapAtK(a, b []float64, k int) float64 {
	ta := TopK(a, k)
	tb := TopK(b, k)
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	inA := make(map[int]bool, len(ta))
	for _, e := range ta {
		inA[e.Index] = true
	}
	var shared int
	for _, e := range tb {
		if inA[e.Index] {
			shared++
		}
	}
	k = len(ta)
	if len(tb) < k {
		k = len(tb)
	}
	return float64(shared) / float64(k)
}

// ContaminationAtK returns the fraction of the top-k items for which
// flagged[i] is true — with flagged marking spam documents, this is the
// spam contamination the paper's §3.3 discusses qualitatively (Figure 3's
// top list is dominated by agglomerate pages; Figure 4's is clean).
func ContaminationAtK(scores []float64, flagged []bool, k int) float64 {
	if len(scores) != len(flagged) {
		panic(fmt.Sprintf("rankutil: ContaminationAtK length mismatch %d vs %d", len(scores), len(flagged)))
	}
	top := TopK(scores, k)
	if len(top) == 0 {
		return 0
	}
	var bad int
	for _, e := range top {
		if flagged[e.Index] {
			bad++
		}
	}
	return float64(bad) / float64(len(top))
}
