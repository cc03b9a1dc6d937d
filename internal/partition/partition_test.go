package partition

import (
	"fmt"
	"testing"

	"lmmrank/internal/graph"
)

// fixtureGraph builds a DocGraph whose site sizes are exactly sizes.
func fixtureGraph(t *testing.T, sizes []int) *graph.DocGraph {
	t.Helper()
	b := graph.NewBuilder()
	var prev graph.DocID
	for s, n := range sizes {
		host := fmt.Sprintf("site%03d.example", s)
		for p := 0; p < n; p++ {
			d := b.AddDocInSite(fmt.Sprintf("http://%s/p%d", host, p), host)
			if d > 0 {
				b.LinkIDs(prev, d)
				b.LinkIDs(d, prev)
			}
			prev = d
		}
	}
	return b.Build()
}

func maxLoad(owner, sizes []int, k int) int {
	load := make([]int, k)
	for s, o := range owner {
		load[o] += sizes[s]
	}
	m := 0
	for _, l := range load {
		if l > m {
			m = l
		}
	}
	return m
}

// TestLPTBeatsRoundRobinOnSkew ports the old coordinator assign test:
// on a skewed size distribution LPT's bottleneck shard beats
// round-robin and stays within the 4/3 approximation bound.
func TestLPTBeatsRoundRobinOnSkew(t *testing.T) {
	sizes := []int{400, 10, 90, 10, 80, 10, 70, 10, 60, 10}
	const k = 3
	owner := LPT(sizes, k, make([]int, k))

	rr := make([]int, len(sizes))
	for s := range rr {
		rr[s] = s % k
	}
	lptMax, rrMax := maxLoad(owner, sizes, k), maxLoad(rr, sizes, k)
	if lptMax >= rrMax {
		t.Errorf("LPT bottleneck %d did not beat round-robin %d", lptMax, rrMax)
	}
	// LPT guarantee: max load ≤ 4/3 · OPT, and OPT ≥ max(total/k, largest).
	total, largest := 0, 0
	for _, sz := range sizes {
		total += sz
		if sz > largest {
			largest = sz
		}
	}
	opt := (total + k - 1) / k
	if largest > opt {
		opt = largest
	}
	if 3*lptMax > 4*opt {
		t.Errorf("LPT bottleneck %d exceeds 4/3 bound (opt lower bound %d)", lptMax, opt)
	}
}

func TestLPTDeterministic(t *testing.T) {
	sizes := []int{5, 5, 9, 2, 2, 7, 1, 8, 3, 3, 6}
	a := LPT(sizes, 4, make([]int, 4))
	for i := 0; i < 10; i++ {
		b := LPT(sizes, 4, make([]int, 4))
		for s := range a {
			if a[s] != b[s] {
				t.Fatalf("run %d: owner[%d] = %d, want %d", i, s, b[s], a[s])
			}
		}
	}
}

// TestBalancedIsLPTByDocuments: the runtime's placement is LPT over the
// sites' document counts, and a non-positive shard count clamps to one
// shard.
func TestBalancedIsLPTByDocuments(t *testing.T) {
	sizes := []int{30, 8, 8, 22, 5, 14, 9, 11}
	dg := fixtureGraph(t, sizes)
	asg := Balanced{}.Partition(dg, 3)
	if !asg.Valid(dg.NumSites(), 3) {
		t.Fatalf("invalid assignment %+v", asg)
	}
	want := LPT(sizes, 3, make([]int, 3))
	for s := range want {
		if asg.Owner[s] != want[s] {
			t.Errorf("owner[%d] = %d, want LPT's %d", s, asg.Owner[s], want[s])
		}
	}
	if one := (Balanced{}).Partition(dg, 0); !one.Valid(dg.NumSites(), 1) {
		t.Errorf("Partition over 0 shards = %+v, want every site on the one shard", one)
	}
}

func TestAssignmentValidAndClone(t *testing.T) {
	a := Assignment{Owner: []int{0, 1, 1, 0}, Shards: 2}
	if !a.Valid(4, 2) {
		t.Error("valid assignment rejected")
	}
	if a.Valid(3, 2) || a.Valid(4, 3) {
		t.Error("mismatched shape accepted")
	}
	if (Assignment{Owner: []int{0, 2}, Shards: 2}).Valid(2, 2) {
		t.Error("out-of-range owner accepted")
	}
	c := a.Clone()
	c.Owner[0] = 1
	if a.Owner[0] != 0 {
		t.Error("Clone aliases Owner")
	}
}

func TestCutCountsOnlyCrossShardWeight(t *testing.T) {
	// Two sites, heavy intra-site traffic, one inter-site link each way.
	b := graph.NewBuilder()
	a0 := b.AddDocInSite("http://a/0", "a")
	a1 := b.AddDocInSite("http://a/1", "a")
	c0 := b.AddDocInSite("http://c/0", "c")
	c1 := b.AddDocInSite("http://c/1", "c")
	b.LinkIDs(a0, a1)
	b.LinkIDs(a1, a0)
	b.LinkIDs(c0, c1)
	b.LinkIDs(a0, c0)
	b.LinkIDs(c1, a1)
	dg := b.Build()
	sg := graph.DeriveSiteGraph(dg, graph.SiteGraphOptions{})

	cut, total := Cut(sg, []int{0, 1})
	if cut != 2 {
		t.Errorf("cut = %g, want 2 (the two inter-site links)", cut)
	}
	if total != 5 {
		t.Errorf("total = %g, want 5", total)
	}
	if got, _ := Cut(sg, []int{0, 0}); got != 0 {
		t.Errorf("co-located cut = %g, want 0", got)
	}
	if f := CutFraction(sg, []int{0, 1}); f != 0.4 {
		t.Errorf("CutFraction = %g, want 0.4", f)
	}
}
