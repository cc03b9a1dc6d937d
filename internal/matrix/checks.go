package matrix

// Structural checks on the nonzero pattern of square matrices:
// irreducibility (strong connectivity), period, and primitivity. These
// implement the conditions of the paper's Lemma 2 and Theorem 2, which
// require the phase matrix Y — and hence the global matrix W — to be
// primitive for the direct (unadjusted) power method to be valid.

// Sparsity abstracts the nonzero pattern of a square matrix. Both *Dense
// and *CSR implement it.
type Sparsity interface {
	Order() int
	// EachNonZero calls fn(col) for every structurally nonzero entry of
	// row i (value strictly positive; stochastic matrices have no negative
	// entries).
	EachNonZero(i int, fn func(col int))
}

// EachNonZero implements Sparsity for Dense: entries > 0 are nonzero.
func (m *Dense) EachNonZero(i int, fn func(col int)) {
	for j, v := range m.Row(i) {
		if v > 0 {
			fn(j)
		}
	}
}

// EachNonZero implements Sparsity for CSR: stored positive entries.
func (m *CSR) EachNonZero(i int, fn func(col int)) {
	m.forward()
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		if m.val[k] > 0 {
			fn(m.colIdx[k])
		}
	}
}

var (
	_ Sparsity = (*Dense)(nil)
	_ Sparsity = (*CSR)(nil)
)

// IsIrreducible reports whether the directed graph of the nonzero pattern
// is strongly connected, i.e. the matrix is irreducible.
func IsIrreducible(m Sparsity) bool {
	n := m.Order()
	if n == 1 {
		return true
	}
	return StrongComponentCount(m) == 1
}

// StrongComponentCount returns the number of strongly connected components
// of the nonzero pattern, using an iterative Tarjan algorithm (no
// recursion, safe for web-scale graphs).
func StrongComponentCount(m Sparsity) int {
	comp, n := strongComponents(m)
	_ = comp
	return n
}

// StrongComponents returns a component index per state (components are
// numbered in reverse topological order of discovery) and the component
// count.
func StrongComponents(m Sparsity) ([]int, int) {
	return strongComponents(m)
}

// strongComponents is an iterative Tarjan SCC.
func strongComponents(m Sparsity) ([]int, int) {
	n := m.Order()
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	comp := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int
	var counter, nComp int

	// Explicit DFS frame: node plus iteration state over its successors.
	type frame struct {
		v     int
		succs []int
		next  int
	}
	succsOf := func(v int) []int {
		var out []int
		m.EachNonZero(v, func(c int) { out = append(out, c) })
		return out
	}

	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames := []frame{{v: root, succs: succsOf(root)}}
		index[root], low[root] = counter, counter
		counter++
		stack = append(stack, root)
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.next < len(f.succs) {
				w := f.succs[f.next]
				f.next++
				if index[w] == unvisited {
					index[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w, succs: succsOf(w)})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// Finished v: pop frame, propagate lowlink, emit component.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := &frames[len(frames)-1]; low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nComp
					if w == v {
						break
					}
				}
				nComp++
			}
		}
	}
	return comp, nComp
}

// Period returns the period of an irreducible nonzero pattern: the gcd of
// the lengths of all cycles. A period of 1 means aperiodic. The result is
// undefined (and 0 is returned) for reducible patterns; call IsIrreducible
// first.
func Period(m Sparsity) int {
	n := m.Order()
	// BFS from state 0 assigning levels; for every edge (u,v),
	// g = gcd(g, level[u]+1−level[v]). Standard chain-period algorithm.
	level := make([]int, n)
	seen := make([]bool, n)
	queue := []int{0}
	seen[0] = true
	g := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		m.EachNonZero(u, func(v int) {
			if !seen[v] {
				seen[v] = true
				level[v] = level[u] + 1
				queue = append(queue, v)
			} else {
				g = gcd(g, level[u]+1-level[v])
			}
		})
	}
	for _, s := range seen {
		if !s {
			return 0 // reducible: not all states reachable from 0
		}
	}
	if g < 0 {
		g = -g
	}
	return g
}

// IsPrimitive reports whether the nonzero pattern is primitive:
// irreducible with period 1. For a nonnegative matrix this is equivalent
// to M^p > 0 for some p (Meyer, Matrix Analysis, ch. 8), the condition the
// paper's footnote 2 states.
func IsPrimitive(m Sparsity) bool {
	if !IsIrreducible(m) {
		return false
	}
	return Period(m) == 1
}

// IsPositive reports whether every entry of the dense matrix is strictly
// positive — a sufficient condition for primitivity used by Lemma 2.
func (m *Dense) IsPositive() bool {
	for _, v := range m.data {
		if v <= 0 {
			return false
		}
	}
	return true
}

func gcd(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
