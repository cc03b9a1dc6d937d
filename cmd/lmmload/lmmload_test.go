package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"lmmrank"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %g, want 0", got)
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
}

// The reported tail percentile must have at least ten samples beyond it.
func TestSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{{100, 0.90, 10}, {99, 0.90, 9}, {150, 0.90, 15}, {150, 0.95, 7}, {1000, 0.99, 10}, {0, 0.9, 0}} {
		if got := samplesBeyond(c.n, c.p); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %g) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which the acceptance procedure uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %g %g %g, want 1.5 3 4.5", q1, q2, q3)
	}
}

// The self-check judges both directions and both spreads.
func TestCompareSets(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name  string
		a, b  []float64
		bound float64
		ok    bool
	}{
		{"alike", steady, []float64{103, 104, 102, 103, 105}, 0.10, true},
		{"second set worse", steady, []float64{120, 121, 119, 120, 122}, 0.10, false},
		{"second set better", steady, []float64{80, 81, 79, 80, 82}, 0.10, false},
		{"first set scattered", []float64{80, 90, 100, 110, 120}, steady, 0.10, false},
		{"second set scattered", steady, []float64{80, 90, 100, 110, 120}, 0.10, false},
		{"no bound", steady, []float64{10, 300, 20, 500, 40}, 0, true},
	} {
		if row, ok := compareSets(c.a, c.b, c.bound); ok != c.ok {
			t.Errorf("%s: agree = %v, want %v\n%s", c.name, ok, c.ok, row)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100},
		// Two children overlap on [30,40]; together they cover [10,60].
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, StartNs: 30, EndNs: 60},
		{ID: 4, Parent: 1, StartNs: 80, EndNs: 90},
		// A grandchild takes from its parent only.
		{ID: 5, Parent: 4, StartNs: 82, EndNs: 86},
		// A replayed child runs after its parent has ended.
		{ID: 6, StartNs: 200, EndNs: 300},
		{ID: 7, Parent: 6, StartNs: 400, EndNs: 450},
		// A child that took longer than its parent leaves no self time.
		{ID: 8, StartNs: 500, EndNs: 510},
		{ID: 9, Parent: 8, StartNs: 600, EndNs: 650},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 40, 2: 30, 3: 30, 4: 6, 5: 4, 6: 50, 7: 50, 8: 0, 9: 50} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestGeneratorsReproduce(t *testing.T) {
	dg, err := decodeSmokeWeb()
	if err != nil {
		t.Fatal(err)
	}
	hash := func(m mix, seed int64, client int) uint64 {
		g := newQueryGen(m, seed, client)
		descs := make([]queryDesc, 500)
		for i := range descs {
			descs[i] = g.next()
		}
		return sequenceHash(descs, editPlan(seed, client, dg, 30))
	}
	for _, m := range []mix{mixSolve, mixServe} {
		if hash(m, 7, 0) != hash(m, 7, 0) {
			t.Errorf("mix %d: the same seed gave two sequences", m)
		}
		if hash(m, 7, 0) == hash(m, 8, 0) {
			t.Errorf("mix %d: seeds 7 and 8 gave the same sequence", m)
		}
		if hash(m, 7, 0) == hash(m, 7, 1) {
			t.Errorf("mix %d: clients 0 and 1 gave the same sequence", m)
		}
	}
	a, b := personalizationPool(22), personalizationPool(22)
	for i := range a {
		if a[i].L1Diff(b[i]) != 0 {
			t.Fatalf("personalization vector %d differs between two draws of the pool", i)
		}
		if !a[i].IsDistribution(1e-12) {
			t.Errorf("personalization vector %d is not a distribution", i)
		}
	}
	// Every edit stays inside the web and starts in its own site.
	for _, e := range editPlan(5, 0, dg, 50) {
		for k, l := range e.Links {
			if dg.SiteOf(l[0]) != e.Site {
				t.Errorf("edit of site %d: link %d starts in site %d", e.Site, k, dg.SiteOf(l[0]))
			}
			if inside := dg.SiteOf(l[1]) == e.Site; inside != (k < editIntra) {
				t.Errorf("edit of site %d: link %d ends inside=%v", e.Site, k, inside)
			}
		}
	}
}

func decodeSmokeWeb() (*lmmrank.DocGraph, error) {
	web, err := smokeWeb(webPaper).bytes()
	if err != nil {
		return nil, err
	}
	return lmmrank.ReadGraphBinary(bytes.NewReader(web))
}

// slowEngine takes a fixed time per Update.
type slowEngine struct {
	engine
	cost time.Duration
}

func (e slowEngine) Update(context.Context, lmmrank.GraphDelta) error {
	time.Sleep(e.cost)
	return nil
}

// An Update that takes longer than the period makes the schedule run
// late: each edit starts when the one before it ends, the lag grows by
// cost−period per edit, latency counts from the due time, and nothing
// starts once the window is over. The schedule runs on load time, so
// the next window picks up where this one's clock stopped.
func TestOpenScheduleLateness(t *testing.T) {
	const period, cost, length = 20 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond
	u := &updater{eng: slowEngine{cost: cost}, plan: make([]edit, 30), period: period}
	start := time.Now()
	u.runWindow(context.Background(), length)
	if took := time.Since(start); took > 2*length {
		t.Errorf("updater ran %v for a %v window", took, length)
	}
	// Edits start at 20, 70, 120 and 170 ms; the fifth would start at 220.
	if len(u.samples) != 4 {
		t.Fatalf("made %d updates, want 4", len(u.samples))
	}
	const slack = 15 * time.Millisecond
	for k, s := range u.samples {
		wantLag := time.Duration(k) * (cost - period)
		if s.lag < wantLag-time.Millisecond || s.lag > wantLag+time.Duration(k+1)*slack {
			t.Errorf("edit %d lag = %v, want about %v", k+1, s.lag, wantLag)
		}
		if wantLat := wantLag + cost; s.lat < wantLat || s.lat > wantLat+time.Duration(k+1)*slack {
			t.Errorf("edit %d latency = %v, want about %v (counted from its due time)", k+1, s.lat, wantLat)
		}
	}
	// Edit 5 was due at 100 ms of load time, 100 ms before the second
	// window began: it starts at once, already that late.
	u.runWindow(context.Background(), length)
	if len(u.samples) < 5 {
		t.Fatal("the second window made no update")
	}
	if lag := u.samples[4].lag; lag < 100*time.Millisecond || lag > 100*time.Millisecond+slack {
		t.Errorf("first edit of the second window lag = %v, want about 100ms", lag)
	}
}

func TestCheckAnswer(t *testing.T) {
	good := &lmmrank.Result{
		DocRank: lmmrank.Vector{0.5, 0.3, 0.2},
		Top:     []lmmrank.DocScore{{Doc: 0, Score: 0.5}, {Doc: 1, Score: 0.3}},
	}
	if msg := checkAnswer(good, lmmrank.Query{TopK: 2}); msg != "" {
		t.Errorf("a good answer failed: %s", msg)
	}
	for name, bad := range map[string]*lmmrank.Result{
		"negative":  {DocRank: lmmrank.Vector{1.1, -0.1}},
		"mass":      {DocRank: lmmrank.Vector{0.5, 0.4}},
		"nan":       {DocRank: lmmrank.Vector{math.NaN(), 1}},
		"short top": {DocRank: lmmrank.Vector{1}, Top: good.Top[:1]},
		"unsorted":  {DocRank: lmmrank.Vector{1}, Top: []lmmrank.DocScore{{Score: 0.3}, {Score: 0.5}}},
	} {
		if checkAnswer(bad, lmmrank.Query{TopK: 2}) == "" {
			t.Errorf("%s: a bad answer passed", name)
		}
	}
	if sameTop(good.Top, good.Top) != nil || sameTop(good.Top, good.Top[:1]) == nil {
		t.Error("sameTop misjudged equal or unequal tables")
	}
}

// BENCHMARK.json and the code list the same workloads and metrics, and
// the file keeps within the benchmark contract's limits.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in the file, %q in the code", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the file, %d in the code", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if want := endToEnd[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("end-to-end metric %d is %+v in the file, %+v in the code", i, m, want)
		}
		// The issue's rule: no bound wider than a tenth. setup_s is the
		// exception the benchmark contract makes: it must stay an
		// end-to-end metric and takes the contract's widest bound.
		if limit := map[bool]float64{true: 0.25, false: 0.10}[m.Name == "setup_s"]; m.Bound <= 0 || m.Bound > limit {
			t.Errorf("%s: bound %g outside (0, %g]", m.Name, m.Bound, limit)
		}
	}
	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in the file, %d in the code", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer metric %d is %+v in the file, %+v in the code", i, m, want)
		}
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, but -seconds defaults to %d", bf.RunSeconds, defaultSeconds)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{{}, {"-workload", "nope"}, {"-workload", "solve-paper", "-seconds", "0"}, {"-bogus"}} {
		var out bytes.Buffer
		if code := realMain(args, &out, io.Discard); code != 2 {
			t.Errorf("lmmload %v exited %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("lmmload %v printed a result: %s", args, out.String())
		}
	}
}

// The smoke run drives the whole harness — set-up repetitions, warm-up,
// timed phase, updater, idle updates, checks, and in traced form the
// probes, the ladder and the span file — on the small test web.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				args := []string{"-workload", w.name, "-seed", "3", "-seconds", "1", "-smoke", "-out", dir}
				if traced {
					args = append(args, "-trace", "1")
				}
				var out bytes.Buffer
				if code := realMain(args, &out, os.Stderr); code != 0 {
					t.Fatalf("exit code %d\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, lines[len(lines)-1])
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, s := range want {
					m, ok := res.Metrics[s.name]
					if !ok || m.Unit != s.unit {
						t.Errorf("metric %s: got %+v (present=%v), want unit %s", s.name, m, ok, s.unit)
					}
					if !traced && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %g, want > 0", s.name, m.Value)
					}
				}
				if !traced {
					return
				}
				for _, name := range []string{"lmm.rank_ms", "lmm.site_solve_ms", "matrix.spmv_ns_per_nnz", "graph.decode_gob_ms", "update_p50_ms", "rank_per_s", "wire.gob_roundtrip_us", "host.calib_ns"} {
					if !(res.Metrics[name].Value > 0) {
						t.Errorf("layer metric %s = %g, want > 0", name, res.Metrics[name].Value)
					}
				}
				data, err := os.ReadFile(dir + "/trace-" + w.name + ".json")
				if err != nil {
					t.Fatal(err)
				}
				var tf traceFile
				if err := json.Unmarshal(data, &tf); err != nil {
					t.Fatal(err)
				}
				if len(tf.Spans) == 0 || tf.Claim != nil || tf.Header.Workload != w.name {
					t.Errorf("span file: %d spans, claim %v, workload %q", len(tf.Spans), tf.Claim, tf.Header.Workload)
				}
			})
		}
	}
}
