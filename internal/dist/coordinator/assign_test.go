package coordinator

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"lmmrank/internal/dist/chaos"
	"lmmrank/internal/dist/wire"
	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/partition"
	"lmmrank/internal/webgen"
)

// declaredFleet dials n workers behind proxies that record every site a
// KindLoad declares or ships to them: held(i) is the ascending site set
// fleet index i was told to hold.
func declaredFleet(t *testing.T, n int) (c *Coordinator, held func(i int) []int) {
	t.Helper()
	var mu sync.Mutex
	sites := make([]map[int]bool, n)
	addrs := make([]string, n)
	for i := range addrs {
		sites[i] = map[int]bool{}
		_, addrs[i] = proxiedWorker(t, func(_ int, req *wire.Request) chaos.Decision {
			if req.Kind == wire.KindLoad {
				mu.Lock()
				for _, ref := range req.Cached {
					sites[i][ref.Site] = true
				}
				for _, sh := range req.Shards {
					sites[i][sh.Site] = true
				}
				mu.Unlock()
			}
			return chaos.Decision{Action: chaos.Pass}
		})
	}
	c, err := Dial(addrs)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c, func(i int) []int {
		mu.Lock()
		defer mu.Unlock()
		var out []int
		for s := range sites[i] {
			out = append(out, s)
		}
		slices.Sort(out)
		return out
	}
}

// TestPinnedAssignmentIsHonored reads the placement a run used off the
// wire — the sites each worker's KindLoad declared — and checks it
// against what Config.Assignment says: a fitting pin places every site
// on its shard's worker (drawn so that it differs from LPT's placement,
// so a run that ignored it would fail), and no pin, or one of the wrong
// length, places by LPT over the sites' document counts. Every run
// still reproduces the single-process ranking < 1e-9.
func TestPinnedAssignmentIsHonored(t *testing.T) {
	const workers = 3
	web := webgen.Generate(webgen.Config{Seed: 3, Sites: 12, MeanSitePages: 8}).Graph
	ns := web.NumSites()
	ref, err := lmm.LayeredDocRank(web, lmm.WebConfig{})
	if err != nil {
		t.Fatalf("reference LayeredDocRank: %v", err)
	}
	sizes := make([]int, ns)
	for s := range sizes {
		sizes[s] = web.SiteSize(graph.SiteID(s))
	}
	lpt := partition.LPT(sizes, workers, make([]int, workers))

	outOfRange := make([]int, ns)
	outOfRange[0] = workers
	type pinCase struct {
		name       string
		pin, owner []int
	}
	cases := []pinCase{
		{"unpinned", nil, lpt},
		{"short-pin", make([]int, ns-1), lpt},
		{"out-of-range-pin", outOfRange, lpt},
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3; trial++ {
		pin := make([]int, ns)
		for redraw := true; redraw; redraw = slices.Equal(pin, lpt) {
			for s := range pin {
				pin[s] = rng.Intn(workers)
			}
		}
		cases = append(cases, pinCase{fmt.Sprintf("random%d", trial), pin, pin})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, held := declaredFleet(t, workers)
			rk, err := lmm.NewRanker(web, lmm.RankerOptions{})
			if err != nil {
				t.Fatalf("NewRanker: %v", err)
			}
			res, err := c.RankPreparedCtx(context.Background(), rk, Config{Assignment: tc.pin}, Warm{})
			if err != nil {
				t.Fatalf("RankPreparedCtx: %v", err)
			}
			if d := docRank(web, res).L1Diff(ref.DocRank); d >= 1e-9 {
				t.Errorf("‖pinned − LayeredDocRank‖₁ = %g, want < 1e-9", d)
			}
			for w := 0; w < workers; w++ {
				var want []int
				for s, o := range tc.owner {
					if o == w {
						want = append(want, s)
					}
				}
				if got := held(w); !slices.Equal(got, want) {
					t.Errorf("worker %d was declared sites %v, want %v", w, got, want)
				}
			}
		})
	}
}
