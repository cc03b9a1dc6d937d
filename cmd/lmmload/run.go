package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"lmmrank"
)

// The shape of every run (the stability rules of the benchmark): the
// set-up is repeated, the load is warmed before it is timed, the timed
// phase is cut into windows, and the update cost is probed on the idle
// engine afterwards. Every time is reported as measured.
const (
	maxProcs      = 2
	setupReps     = 4 // the first is left out of setup_s; the last one's engine serves the run
	windows       = 12
	idleUpdates   = 21
	churnUpdates  = defaultSeconds // per `seconds` of load: one a second at the benchmark's length
	warmupShare   = 20             // warm-up lasts seconds/warmupShare
	noteEvery     = 20             // traced runs replay every noteEvery-th traced query
	maxNoted      = 12
	checkedSample = 4 // answers compared bit-for-bit after the phase
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runConfig struct {
	workload workload
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	outDir   string
	out      io.Writer
}

// tally counts operations attempted and the ones that failed; a failed
// output check is a failed operation.
type tally struct {
	attempted int
	failures  []string
}

func (t *tally) op(err error, what string) {
	t.attempted++
	if err != nil {
		t.failures = append(t.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

func (t *tally) absorb(attempted int, failures []string) {
	t.attempted += attempted
	t.failures = append(t.failures, failures...)
}

// run executes one workload once and returns its result. An error
// means the run could not be carried out at all; failed operations and
// checks are reported in the result instead.
func run(cfg runConfig) (result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(maxProcs))
	ctx := context.Background()
	w := cfg.workload
	if cfg.smoke {
		w.web = smokeWeb(w.web)
	}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	layers := newLayerMetrics()
	// spent records where the run's own wall time went, step by step.
	var spent []string
	last := time.Now()
	step := func(name string) {
		spent = append(spent, fmt.Sprintf("%s=%.1fs", name, time.Since(last).Seconds()))
		last = time.Now()
	}

	web, err := w.web.bytes()
	if err != nil {
		return result{}, fmt.Errorf("generating %s: %w", w.web.name, err)
	}
	step("inputs")

	// Set-up, repeated. The first repetition pays one-off costs (page
	// faults on the input, heap growth) and is left out of setup_s. A
	// traced run uses its graph for the graph- and kernel-layer probes.
	var t tally
	var eng engine
	var stop func() error
	var first *lmmrank.Result
	var setupS []float64
	for rep := 1; rep <= setupReps; rep++ {
		if stop != nil {
			if err := stop(); err != nil {
				return result{}, fmt.Errorf("set-up %d: stopping the previous engine: %w", rep, err)
			}
		}
		eng, stop, first = nil, nil, nil
		runtime.GC()
		start := time.Now()
		parent := tr.begin("load.setup", 0, 0)
		eng, stop, first, err = w.setupOnce(ctx, web, tr, parent)
		if err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", rep, err)
		}
		tr.end(parent)
		setupS = append(setupS, time.Since(start).Seconds())
		t.op(nil, "first rank")
		if rep == 1 && tr != nil {
			probeGraphLayers(tr, eng.DocGraph(), layers)
		}
	}
	defer stop()
	step("setups")

	dg := eng.DocGraph()
	traffic := newTraffic(dg.NumSites())
	idlePlan := editPlan(cfg.seed, 0, dg, idleUpdates)
	churnPlan := editPlan(cfg.seed, 1, dg, churnUpdates)
	h := newHeader(cfg, w, dg, idlePlan, churnPlan)
	h.print(cfg.out)
	if msg := checkAnswer(first, w.firstQuery()); msg != "" {
		t.absorb(1, []string{msg})
	}

	seconds := time.Duration(cfg.seconds * float64(time.Second))
	newClients := func(stream int) []*client {
		cs := make([]*client, w.clients)
		for i := range cs {
			cs[i] = &client{gen: newQueryGen(w.mix, cfg.seed, stream*100+i), traffic: traffic, stride: w.checkStride}
		}
		return cs
	}

	// Warm-up: the same load, untimed, so pools, caches and the heap
	// reach their serving state before anything is measured.
	warm := &phase{eng: eng, clients: newClients(0)}
	warm.runWindow(ctx, 0, seconds/warmupShare)
	t.absorb(len(warm.samples()), warm.failures())
	step("warmup")

	// The timed phase, window by window. A traced run records spans in
	// every other window, so traced and untraced throughput are measured
	// in one process, interleaved.
	timed := &phase{eng: eng, clients: newClients(1), tr: tr}
	var upd *updater
	if w.churn {
		upd = &updater{eng: eng, plan: churnPlan, period: seconds / churnUpdates, tr: tr}
	}
	counters := takeRuntimeCounters(eng)
	elapsed := make([]time.Duration, windows)
	for win := 0; win < windows; win++ {
		timed.tracing = tr != nil && win%2 == 0
		var wg sync.WaitGroup
		if upd != nil {
			wg.Add(1)
			go func() { defer wg.Done(); upd.runWindow(ctx, seconds/windows) }()
		}
		elapsed[win] = timed.runWindow(ctx, win, seconds/windows)
		wg.Wait()
	}
	counters = takeRuntimeCounters(eng).since(counters)
	step("timed")
	samples := timed.samples()
	t.absorb(len(samples), timed.failures())
	if upd != nil {
		t.absorb(len(upd.samples), upd.failures)
	}
	if len(samples) == 0 {
		return result{}, fmt.Errorf("the timed phase completed no query")
	}
	counts := make([]int, windows)
	latMs := make([]float64, len(samples))
	for i, s := range samples {
		counts[s.window]++
		latMs[i] = ms(s.lat)
	}
	rates := make([]float64, windows)
	for win, n := range counts {
		rates[win] = float64(n) / elapsed[win].Seconds()
	}
	sort.Float64s(latMs)

	if tr != nil {
		phaseLayerMetrics(timed, upd, counters, latMs, layers)
		noted := noteQueries(tr, timed)
		if upd != nil {
			tr.adopt(upd.spans)
		}
		if err := queryLadder(ctx, tr, eng, w, traffic, noted, layers); err != nil {
			return result{}, fmt.Errorf("ladder replay: %w", err)
		}
	}

	if tr != nil {
		step("ladder")
	}

	// Freshness cost: sequential single-site Updates on the idle engine.
	var updateMs []float64
	shadow := newUpdateShadow(tr, eng)
	for i, e := range idlePlan {
		start := time.Now()
		var err error
		id := tr.do("engine.update", 0, 0, func() { err = eng.Update(ctx, e.delta()) })
		updateMs = append(updateMs, ms(time.Since(start)))
		t.op(err, "update")
		if err == nil && shadow != nil && i < shadowUpdates {
			if err := shadow.replay(ctx, e, id, layers); err != nil {
				return result{}, fmt.Errorf("update replay: %w", err)
			}
		}
	}
	step("updates")
	rss, err := peakRSSMiB()
	if err != nil {
		return result{}, err
	}
	overshoot := sleepOvershootUs()

	// Output checks on the final snapshot; they build a second engine,
	// which is why the memory readings come first.
	live := liveHeapMiB()
	t.absorb(finalChecks(ctx, eng, w, traffic, cfg.seed, dg, first))
	step("checks")

	fmt.Fprintf(cfg.out, "# run: %s\n", strings.Join(spent, " "))
	fmt.Fprintf(cfg.out, "# samples: rank=%d (beyond p90: %d) windows=%d setup=%d of %d update=%d\n",
		len(latMs), samplesBeyond(len(latMs), 0.90), windows, setupReps-1, setupReps, len(updateMs))
	if samplesBeyond(len(latMs), 0.90) < minBeyond {
		fmt.Fprintf(cfg.out, "# warning: fewer than %d samples beyond p90\n", minBeyond)
	}
	fmt.Fprintf(cfg.out, "# host: a 1 ms sleep overshoots by %.0f us at p90\n", overshoot)
	load := map[string]float64{
		"setup_s":       median(setupS[1:]),
		"heap_live_mb":  live,
		"rank_alloc_kb": float64(counters.mem.TotalAlloc) / 1024 / float64(len(samples)),
		"peak_rss_mb":   rss,
		"rank_per_s":    median(rates),
		"rank_p50_ms":   percentile(latMs, 0.50),
		"rank_p90_ms":   percentile(latMs, 0.90),
		"update_p50_ms": median(updateMs),
	}
	var res result
	if tr == nil {
		res.Metrics = make(map[string]metric, len(endToEnd))
		for _, s := range endToEnd {
			res.Metrics[s.name] = metric{load[s.name], s.unit}
		}
		fmt.Fprintln(cfg.out, "# load metrics without a bound (they do not repeat within a tenth on a shared host):")
		for _, s := range ungated {
			printMetric(cfg.out, s.name, load[s.name], s.unit)
		}
		fmt.Fprintln(cfg.out, "# end-to-end metrics:")
	} else {
		for _, s := range ungated {
			layers.set(s.name, load[s.name])
		}
		layers.set("host.calib_ns", h.CalibNs)
		layers.set("host.sleep_overshoot_p90_us", overshoot)
		res.Metrics = layers.m
		path, err := tr.write(cfg.outDir, h, res.Metrics)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(cfg.out, "# trace: %d spans written to %s\n", len(tr.spans), path)
	}
	res.Attempted, res.Failed = t.attempted, len(t.failures)
	res.Correct = res.Failed == 0
	printMetrics(cfg.out, res, t.failures)
	return res, nil
}

func newHeader(cfg runConfig, w workload, dg *lmmrank.DocGraph, plans ...[]edit) header {
	var descs []queryDesc
	for c := 0; c < w.clients; c++ {
		g := newQueryGen(w.mix, cfg.seed, 100+c)
		for i := 0; i < 256; i++ {
			descs = append(descs, g.next())
		}
	}
	var edits []edit
	for _, p := range plans {
		edits = append(edits, p...)
	}
	return header{
		Workload:   w.name,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Traced:     cfg.traced,
		Smoke:      cfg.smoke,
		Web:        w.web.name,
		Docs:       dg.NumDocs(),
		Sites:      dg.NumSites(),
		Edges:      dg.G.NumEdges(),
		Clients:    w.clients,
		InputHash:  fmt.Sprintf("%016x", sequenceHash(descs, edits)),
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		CalibNs:    calibNs(),
	}
}

// printMetrics lists the result's metrics by name with their units,
// then the failures; the one-line JSON result the driver reads follows
// in main.
func printMetrics(out io.Writer, res result, failures []string) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		printMetric(out, name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	fmt.Fprintf(out, "%-32s %14d count\n%-32s %14d count\n", "ops_attempted", res.Attempted, "ops_failed", res.Failed)
	for i, f := range failures {
		if i == 10 {
			fmt.Fprintf(out, "# ... and %d more failures\n", len(failures)-i)
			break
		}
		fmt.Fprintf(out, "# FAILED %s\n", f)
	}
}

func printMetric(out io.Writer, name string, value float64, unit string) {
	fmt.Fprintf(out, "%-32s %14.6g %s\n", name, value, unit)
}
