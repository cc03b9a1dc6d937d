package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"lmmrank"
	"lmmrank/internal/dist/chaos"
	"lmmrank/internal/dist/cluster"
	"lmmrank/internal/dist/wire"
	"lmmrank/internal/webgen"
)

// engine is what the harness drives: lmmrank.Engine plus the two
// accessors both backends share.
type engine interface {
	lmmrank.Engine
	DocGraph() *lmmrank.DocGraph
	ServingStats() lmmrank.ServingStats
}

// webSpec names a generated input web. The web is the benchmark's fixed
// corpus — the paper ranks one crawl — so its generator seed is part of
// the spec, not of a run: site sizes follow a Pareto law, and letting
// the run seed redraw them moves the document count by ±5 % and every
// timing with it. The run seed drives the traffic instead (gen.go).
type webSpec struct {
	name string
	cfg  webgen.Config
}

const corpusSeed = 2005

var (
	webPaper = webSpec{"web-paper", webgen.Config{Seed: corpusSeed, Sites: 218, MeanSitePages: 1900, DynamicClusterPages: 10000, DocClusterPages: 10000}}
	webMid   = webSpec{"web-mid", webgen.Config{Seed: corpusSeed, Sites: 218, MeanSitePages: 400, DynamicClusterPages: 10000, DocClusterPages: 10000}}
)

// smokeWeb is the -smoke stand-in for either web.
func smokeWeb(w webSpec) webSpec {
	cfg := webgen.Small()
	cfg.Seed = corpusSeed
	return webSpec{w.name + "-smoke", cfg}
}

// bytes generates the web and serializes it the way a user would hand
// it to the program: the gob encoding ReadGraphBinary reads.
func (w webSpec) bytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := lmmrank.WriteGraphBinary(&buf, webgen.Generate(w.cfg).Graph); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// workload is one benchmark scenario: a web, an engine configuration
// and a traffic shape.
type workload struct {
	name    string
	web     webSpec
	clients int
	mix     mix
	// parallelism is the engine's per-query fan-out (0 = GOMAXPROCS);
	// the ladder replays a query on its own Ranker with the same value.
	parallelism int
	// churn adds the open-schedule updater beside the read clients.
	churn bool
	// checkStride: every checkStride-th answer of a client has its
	// DocRank checked inline (sum and sign).
	checkStride int
	// build constructs the engine over dg; stop releases whatever it
	// started (the fleet, for dist-wan).
	build func(dg *lmmrank.DocGraph) (eng engine, stop func() error, err error)
}

// wanDelay is the one-way latency injected in front of every worker.
const wanDelay = time.Millisecond

const fleetSize = 4

var servingOptions = lmmrank.EngineOptions{
	Parallelism: 1,
	TopKIndex:   true,
	Coalesce:    true,
	CoalesceTol: 1e-6,
	MaxInFlight: 64,
	TenantQuota: 16,
}

func buildLocal(opts lmmrank.EngineOptions) func(*lmmrank.DocGraph) (engine, func() error, error) {
	return func(dg *lmmrank.DocGraph) (engine, func() error, error) {
		eng, err := lmmrank.NewLocalEngine(dg, opts)
		if err != nil {
			return nil, nil, err
		}
		return eng, func() error { return nil }, nil
	}
}

func buildDist(dg *lmmrank.DocGraph) (engine, func() error, error) {
	cl, err := cluster.StartChaosLocal(fleetSize)
	if err != nil {
		return nil, nil, err
	}
	for _, p := range cl.Proxies {
		p.SetScript(func(int, *wire.Request) chaos.Decision {
			return chaos.Decision{Action: chaos.Delay, Delay: wanDelay}
		})
	}
	eng, err := lmmrank.NewDistEngine(cl, dg, lmmrank.DistConfig{SiteRank: lmmrank.SiteRankSync})
	if err != nil {
		cl.Close()
		return nil, nil, err
	}
	return eng, cl.Close, nil
}

// The four workloads. Each stresses layers the others leave idle, so an
// optimization of one layer has a workload that should move and others
// that should not (README.md has the full table).
var workloads = []workload{
	{
		// Cold full solves: matrix, pagerank and lmm do all the work, the
		// serving front none. The one place per-query parallelism shows.
		name:        "solve-paper",
		web:         webPaper,
		clients:     1,
		mix:         mixSolve,
		checkStride: 1,
		build:       buildLocal(lmmrank.EngineOptions{}),
	},
	{
		// Every query is index-eligible: admission, coalescing, the site
		// solve, compose and the posting-list merge work; the SpMV kernels
		// hardly run.
		name:        "serve-topk",
		web:         webPaper,
		clients:     2,
		mix:         mixServe,
		checkStride: 16,
		parallelism: servingOptions.Parallelism,
		build:       buildLocal(servingOptions),
	},
	{
		// The same reads beside a steady update stream: the difference to
		// serve-topk is what snapshots, rebuilds and index patches cost.
		name:        "serve-churn",
		web:         webPaper,
		clients:     2,
		mix:         mixServe,
		churn:       true,
		checkStride: 16,
		parallelism: servingOptions.Parallelism,
		build:       buildLocal(servingOptions),
	},
	{
		// About a hundred barrier rounds of 1 ms each per query put the
		// cost in coordinator, wire and worker — which loopback hides.
		name:        "dist-wan",
		web:         webMid,
		clients:     1,
		mix:         mixUniform,
		checkStride: 1,
		build:       buildDist,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// setupOnce is one cold set-up as a user would pay it: decode the web,
// construct the engine (for dist-wan: start the fleet too) and answer
// the first query, which on dist-wan ships every shard.
func (w workload) setupOnce(ctx context.Context, web []byte, tr *tracer, parent int) (eng engine, stop func() error, first *lmmrank.Result, err error) {
	var dg *lmmrank.DocGraph
	tr.do("graph.decode_gob", parent, 0, func() {
		dg, err = lmmrank.ReadGraphBinary(bytes.NewReader(web))
	})
	if err != nil {
		return nil, nil, nil, err
	}
	tr.do("engine.construct", parent, 0, func() {
		eng, stop, err = w.build(dg)
	})
	if err != nil {
		return nil, nil, nil, err
	}
	tr.do("engine.first_rank", parent, 0, func() {
		first, err = eng.Rank(ctx, w.firstQuery())
	})
	if err != nil {
		stop()
		return nil, nil, nil, err
	}
	return eng, stop, first, nil
}

// firstQuery is the uniform query in the shape the workload's clients
// use, so the set-up's first answer exercises the path they will.
func (w workload) firstQuery() lmmrank.Query {
	if w.mix == mixServe {
		return lmmrank.Query{TopK: topK}
	}
	return lmmrank.Query{}
}
