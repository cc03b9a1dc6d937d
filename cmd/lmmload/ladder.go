package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sort"
	"time"

	"lmmrank"
	"lmmrank/internal/dist/wire"
	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
	"lmmrank/internal/partition"
)

// The cost ladder of a traced run. The program has no spans of its own
// yet, so nesting comes from replay: after the load has ended, the
// harness re-issues a noted query one rung further down — Engine.Rank,
// then Ranker.Rank on a Ranker of its own over the same graph, then the
// Ranker's parts — and records each as a child span of the rung above.
// The fixed rungs below (pagerank solve, PowerLeft, one CSR sweep) do
// not depend on the query and are probed once, on the first set-up's
// graph. Everything here runs on an otherwise idle process.

const (
	probeReps     = 3
	kernelReps    = 2 // a flat solve of the paper web takes about a second
	wireTrips     = 200
	shadowUpdates = 5 // idle updates replayed on the harness's own Ranker
)

// mallocs reads the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func largestSite(dg *lmmrank.DocGraph) lmmrank.SiteID {
	best := 0
	for s := range dg.Sites {
		if len(dg.Sites[s].Docs) > len(dg.Sites[best].Docs) {
			best = s
		}
	}
	return lmmrank.SiteID(best)
}

// probeGraphLayers measures the graph, partition, pagerank and matrix
// rungs on dg, the graph of the first set-up.
func probeGraphLayers(tr *tracer, dg *lmmrank.DocGraph, l *layerMetrics) {
	root := tr.begin("probe.graph", 0, 0)
	var sg *graph.SiteGraph
	var asg partition.Assignment
	big := largestSite(dg)
	var sub *graph.Digraph
	for i := 0; i < probeReps; i++ {
		tr.do("graph.derive_sitegraph", root, 0, func() { sg = graph.DeriveSiteGraph(dg, graph.SiteGraphOptions{}) })
		tr.do("graph.local_subgraph", root, 0, func() { sub, _ = dg.LocalSubgraph(big) })
		tr.do("partition.assign", root, 0, func() { asg = partition.Balanced{}.Partition(dg, fleetSize) })
	}
	var flat *matrix.CSR
	tr.do("graph.transition", root, 0, func() { flat = dg.G.TransitionMatrix() })
	tr.end(root)
	l.set("graph.derive_sitegraph_ms", tr.medianMs("graph.derive_sitegraph"))
	l.set("graph.local_subgraph_ms", tr.medianMs("graph.local_subgraph"))
	l.set("graph.transition_ms", tr.medianMs("graph.transition"))
	l.set("partition.assign_ms", tr.medianMs("partition.assign"))
	l.set("partition.cut_frac", partition.CutFraction(sg, asg.Owner))

	siteSolver := pagerank.NewSolver(sub.TransitionMatrix())
	for i := 0; i < probeReps; i++ {
		tr.do("pagerank.solve_site", 0, 0, func() { siteSolver.Solve(pagerank.Config{}) })
	}
	l.set("pagerank.solve_site_ms", tr.medianMs("pagerank.solve_site"))
	probeKernels(tr, flat, l)
}

// probeKernels walks the fixed rungs on the flat (whole-web) chain:
// the centralized PageRank solve the paper compares against, the power
// iteration inside it, and the CSR sweeps inside that. Each PowerLeft
// span is a child of a solve span and each sweep span — as many sweeps
// as the power iteration made — a child of a PowerLeft span.
func probeKernels(tr *tracer, flat *matrix.CSR, l *layerMetrics) {
	solver := pagerank.NewSolver(flat)
	op, err := pagerank.NewOperator(flat, pagerank.DefaultDamping, nil)
	if err != nil {
		panic(err) // the default damping is valid
	}
	var scratch matrix.PowerScratch
	n := flat.Order()
	x, dst := matrix.Uniform(n), matrix.NewVector(n)
	var solveIters, powerIters int
	var solveAllocs, powerAllocs uint64
	var sweepNs []float64
	// Two throwaway iterations size the scratch buffers, so the recorded
	// runs show steady-state allocations.
	solver.Solve(pagerank.Config{MaxIter: 2})
	matrix.PowerLeft(op, matrix.PowerOptions{Scratch: &scratch, MaxIter: 2})
	for rep := 0; rep < kernelReps; rep++ {
		before := mallocs()
		solveID := tr.do("pagerank.solve_flat", 0, 0, func() {
			res, _ := solver.Solve(pagerank.Config{})
			solveIters = res.Iterations
		})
		mid := mallocs()
		powerID := tr.do("matrix.powerleft", solveID, 0, func() {
			res, _ := matrix.PowerLeft(op, matrix.PowerOptions{Scratch: &scratch})
			powerIters = res.Iterations
		})
		solveAllocs, powerAllocs = mid-before, mallocs()-mid
		start := time.Now()
		tr.do("matrix.spmv", powerID, 0, func() {
			for i := 0; i < powerIters; i++ {
				flat.MulVecLeft(dst, x)
			}
		})
		sweepNs = append(sweepNs, float64(time.Since(start).Nanoseconds())/float64(powerIters))
	}
	sweep := median(sweepNs)
	l.set("pagerank.solve_flat_ms", tr.medianMs("pagerank.solve_flat"))
	l.set("pagerank.solve_flat_iters", float64(solveIters))
	l.set("pagerank.solve_allocs", float64(solveAllocs))
	l.set("matrix.powerleft_ms", tr.medianMs("matrix.powerleft"))
	l.set("matrix.powerleft_iters", float64(powerIters))
	l.set("matrix.powerleft_allocs", float64(powerAllocs))
	l.set("matrix.spmv_ns_per_nnz", sweep/float64(flat.NNZ()))
	// Computed, not measured, traffic: 8 B value + 4 B column per
	// non-zero, 8 B read + 8 B written per row; cache misses not counted.
	l.set("matrix.spmv_gbps_computed", (12*float64(flat.NNZ())+16*float64(n))/sweep)
}

// runtimeCounters snapshots what the phase-level layer metrics are
// deltas of.
type runtimeCounters struct {
	mem     runtime.MemStats
	serving lmmrank.ServingStats
}

func takeRuntimeCounters(eng engine) runtimeCounters {
	var c runtimeCounters
	runtime.ReadMemStats(&c.mem)
	c.serving = eng.ServingStats()
	return c
}

// since returns the growth of the cumulative counters from before to c.
func (c runtimeCounters) since(before runtimeCounters) runtimeCounters {
	c.mem.Mallocs -= before.mem.Mallocs
	c.mem.TotalAlloc -= before.mem.TotalAlloc
	c.mem.NumGC -= before.mem.NumGC
	c.mem.PauseTotalNs -= before.mem.PauseTotalNs
	c.serving.Ranks -= before.serving.Ranks
	c.serving.Overloads -= before.serving.Overloads
	c.serving.CoalesceShared -= before.serving.CoalesceShared
	c.serving.TopKIndexServes -= before.serving.TopKIndexServes
	return c
}

// phaseLayerMetrics derives the serving-front, churn and fleet metrics
// from the traced phase itself: counter growth over it, the latency
// tail, the update schedule, and the medians of the answers'
// Result.Dist.
func phaseLayerMetrics(p *phase, upd *updater, grown runtimeCounters, latMs []float64, l *layerMetrics) {
	ranks := float64(grown.serving.Ranks)
	overloads := float64(grown.serving.Overloads)
	if ranks > 0 {
		l.set("engine.index_served_frac", float64(grown.serving.TopKIndexServes)/ranks)
		l.set("engine.coalesced_frac", float64(grown.serving.CoalesceShared)/ranks)
		l.set("engine.overload_frac", overloads/(ranks+overloads))
		l.set("engine.allocs_per_rank", float64(grown.mem.Mallocs)/ranks)
		l.set("engine.bytes_per_rank", float64(grown.mem.TotalAlloc)/ranks)
	}
	l.set("engine.gc_cycles", float64(grown.mem.NumGC))
	l.set("engine.gc_pause_ms", float64(grown.mem.PauseTotalNs)/1e6)
	l.set("engine.rank_p99_ms", percentile(latMs, 0.99))

	// Tracing overhead: the closed loop's throughput is clients / mean
	// latency, so the ratio of mean latencies with recording off and on
	// is the ratio of the two throughputs. Recording alternates by
	// window, so both sides see the same stretch of host time.
	var on, off []float64
	for _, s := range p.samples() {
		if s.traced {
			on = append(on, ms(s.lat))
		} else {
			off = append(off, ms(s.lat))
		}
	}
	if len(on) > 0 && len(off) > 0 {
		l.set("trace.overhead_frac", 1-mean(off)/mean(on))
	}

	if upd != nil {
		var lat, lag []float64
		for _, s := range upd.samples {
			lat, lag = append(lat, ms(s.lat)), append(lag, ms(s.lag))
		}
		l.set("engine.update_loaded_p50_ms", median(lat))
		l.set("engine.update_count", float64(len(lat)))
		l.set("load.update_lag_p99_ms", percentile(sortedCopy(lag), 0.99))
	}

	var stats []lmmrank.DistStats
	for _, c := range p.clients {
		stats = append(stats, c.dist...)
	}
	if len(stats) == 0 {
		return
	}
	med := func(f func(lmmrank.DistStats) float64) float64 {
		xs := make([]float64, len(stats))
		for i, s := range stats {
			xs[i] = f(s)
		}
		return median(xs)
	}
	rounds := med(func(s lmmrank.DistStats) float64 { return float64(s.SiteRankRounds) })
	siterank := med(func(s lmmrank.DistStats) float64 { return ms(s.SiteRankDuration) })
	floor := rounds * ms(wanDelay)
	l.set("dist.load_ms", med(func(s lmmrank.DistStats) float64 { return ms(s.LoadDuration) }))
	l.set("dist.local_phase_ms", med(func(s lmmrank.DistStats) float64 { return ms(s.LocalRankDuration) }))
	l.set("dist.siterank_ms", siterank)
	l.set("dist.rounds", rounds)
	l.set("dist.msgs_per_rank", med(func(s lmmrank.DistStats) float64 { return float64(s.Messages) }))
	l.set("dist.bytes_per_rank", med(func(s lmmrank.DistStats) float64 { return float64(s.BytesSent + s.BytesReceived) }))
	l.set("dist.rtt_floor_ms", floor)
	if rounds > 0 {
		l.set("dist.overhead_per_round_us", (siterank-floor)/rounds*1000)
	}
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// noted is a traced query picked for replay.
type noted struct {
	root  int // ID of its load.rank span
	query int
	desc  queryDesc
}

// noteQueries hands the clients' spans to the tracer and picks every
// noteEvery-th traced query (at most maxNoted), in start order, for the
// ladder.
func noteQueries(tr *tracer, p *phase) []noted {
	var all []noted
	for _, c := range p.clients {
		ids := tr.adopt(c.spans)
		for i, id := range ids {
			all = append(all, noted{root: id, query: c.spans[i].Query, desc: c.descs[i]})
		}
	}
	sort.Slice(all, func(a, b int) bool { return tr.spans[all[a].root-1].StartNs < tr.spans[all[b].root-1].StartNs })
	// A slow workload traces only a few dozen queries; it still gets
	// four rungs' worth of replays.
	stride := min(noteEvery, max(1, len(all)/4))
	var picked []noted
	for i := stride - 1; i < len(all) && len(picked) < maxNoted; i += stride {
		picked = append(picked, all[i])
	}
	return picked
}

// queryLadder replays the noted queries down the query-dependent rungs.
func queryLadder(ctx context.Context, tr *tracer, eng engine, w workload, tf *traffic, picked []noted, l *layerMetrics) error {
	dg := eng.DocGraph()
	var rk *lmm.Ranker
	var err error
	tr.do("lmm.new_ranker", 0, 0, func() { rk, err = lmm.NewRanker(dg, lmm.RankerOptions{}) })
	if err != nil {
		return err
	}
	tr.do("lmm.prepare", 0, 0, rk.Prepare)
	l.set("lmm.new_ranker_ms", tr.medianMs("lmm.new_ranker"))
	l.set("lmm.prepare_ms", tr.medianMs("lmm.prepare"))

	_, isDist := eng.(*lmmrank.DistEngine)
	indexed := w.mix == mixServe
	// An index-serving engine composes every answer from its snapshot's
	// warm solution; the harness fetches a solution of the same shape to
	// replay the compose step with.
	var seedSite lmmrank.Vector
	var seedLocals []lmmrank.Vector
	if indexed {
		res, err := eng.Rank(ctx, lmmrank.Query{WantLocalRanks: true})
		if err != nil {
			return err
		}
		seedSite, seedLocals = res.SiteRank, res.LocalRanks
	}

	var siteIters, localIters int
	var rankAllocs uint64
	// lmmRungs replays one query on the harness's Ranker under parent.
	lmmRungs := func(q lmmrank.Query, parent, query int) error {
		// The engine starts an answer from its snapshot's solution
		// (nothing, until the first Update, on an engine without index).
		cfg := lmm.WebConfig{SitePersonalization: q.SitePersonalization, Parallelism: w.parallelism,
			SiteStart: seedSite, LocalStarts: seedLocals, Ctx: ctx}
		if indexed && q.TopK > 0 {
			var sr matrix.Vector
			tr.do("lmm.site_solve", parent, query, func() { sr, siteIters, err = rk.RankSites(cfg) })
			if err != nil {
				return err
			}
			tr.do("lmm.compose", parent, query, func() { lmm.ComposeDocRank(dg, sr, seedLocals) })
			return nil
		}
		var wr *lmm.WebResult
		before := mallocs()
		id := tr.do("lmm.rank", parent, query, func() { wr, err = rk.Rank(cfg) })
		if err != nil {
			return err
		}
		rankAllocs = mallocs() - before
		siteIters, localIters = wr.SiteIterations, 0
		for _, it := range wr.LocalIterations {
			localIters += it
		}
		site, locals := wr.SiteRank.Clone(), wr.LocalRanks
		tr.do("lmm.compose", id, query, func() { lmm.ComposeDocRank(dg, site, locals) })
		tr.do("lmm.site_solve", id, query, func() { _, _, err = rk.RankSites(cfg) })
		return err
	}

	for _, nq := range picked {
		q := tf.query(nq.desc)
		name := "engine.rank_full"
		if indexed && q.TopK > 0 {
			name = "engine.rank_topk_index"
		}
		id := tr.do(name, nq.root, nq.query, func() { _, err = eng.Rank(ctx, q) })
		if err != nil {
			return err
		}
		if isDist {
			continue // a fleet answer has no Ranker.Rank inside it
		}
		if err := lmmRungs(q, id, nq.query); err != nil {
			return err
		}
	}

	// The shapes the timed mixes leave out, and on the fleet the local
	// solve of the same web for reference; all under query 0.
	big := largestSite(dg)
	for i := 0; i < probeReps; i++ {
		if isDist {
			if err := lmmRungs(lmmrank.Query{}, 0, 0); err != nil {
				return err
			}
			continue
		}
		if indexed {
			id := tr.do("engine.rank_full", 0, 0, func() { _, err = eng.Rank(ctx, lmmrank.Query{}) })
			if err != nil {
				return err
			}
			if err := lmmRungs(lmmrank.Query{}, id, 0); err != nil {
				return err
			}
		}
		bias := matrix.Uniform(len(dg.Sites[big].Docs))
		bias[0] += 1
		doc := lmmrank.Query{DocPersonalization: map[lmmrank.SiteID]lmmrank.Vector{big: bias.Normalize()}}
		tr.do("engine.rank.doc", 0, 0, func() { _, err = eng.Rank(ctx, doc) })
		if err != nil {
			return err
		}
		tr.do("engine.rank.three", 0, 0, func() { _, err = eng.Rank(ctx, lmmrank.Query{ThreeLayer: true}) })
		if err != nil {
			return err
		}
	}

	l.set("engine.rank_full_ms", tr.medianMs("engine.rank_full"))
	l.set("engine.rank_topk_index_ms", tr.medianMs("engine.rank_topk_index"))
	l.set("engine.rank_ms.doc", tr.medianMs("engine.rank.doc"))
	l.set("engine.rank_ms.three", tr.medianMs("engine.rank.three"))
	l.set("engine.construct_ms", tr.medianMs("engine.construct"))
	l.set("engine.first_rank_ms", tr.medianMs("engine.first_rank"))
	l.set("graph.decode_gob_ms", tr.medianMs("graph.decode_gob"))
	l.set("lmm.rank_ms", tr.medianMs("lmm.rank"))
	l.set("lmm.local_solves_ms", tr.medianSelfMs("lmm.rank"))
	l.set("lmm.site_solve_ms", tr.medianMs("lmm.site_solve"))
	l.set("lmm.compose_ms", tr.medianMs("lmm.compose"))
	l.set("lmm.site_iters", float64(siteIters))
	l.set("lmm.local_iters_total", float64(localIters))
	l.set("lmm.rank_allocs", float64(rankAllocs))
	if !isDist {
		l.set("engine.front_self_ms", tr.medianSelfMs("engine.rank_full"))
	}
	return probeWire(tr, dg.NumSites(), l)
}

// probeWire times one KindPowerRound exchange — the message a
// distributed SiteRank round sends every worker — through the gob
// codecs of wire.Conn over an in-memory pipe: encode, decode and
// framing with no network under them.
func probeWire(tr *tracer, numSites int, l *layerMetrics) error {
	a, b := net.Pipe()
	var counters wire.Counters
	cli, srv := wire.NewConn(a, &counters), wire.NewConn(b, new(wire.Counters))
	served := make(chan error, 1)
	go func() {
		partial := make([]float64, numSites)
		for i := range partial {
			partial[i] = 1 / float64(numSites)
		}
		for {
			var req wire.Request
			if err := srv.Dec.Decode(&req); err != nil {
				served <- nil // the client hung up: done
				return
			}
			if err := srv.Enc.Encode(&wire.Response{Partial: partial, DanglingMass: 0.01}); err != nil {
				served <- err
				return
			}
		}
	}()
	x := matrix.Uniform(numSites)
	var trips []float64
	var err error
	for i := 0; i < wireTrips && err == nil; i++ {
		start := time.Now()
		tr.do("wire.gob_roundtrip", 0, 0, func() {
			if err = cli.Enc.Encode(&wire.Request{Kind: wire.KindPowerRound, NumSites: numSites, X: x}); err == nil {
				var resp wire.Response
				err = cli.Dec.Decode(&resp)
			}
		})
		trips = append(trips, float64(time.Since(start).Nanoseconds())/1e3)
	}
	cli.Close()
	if serr := <-served; err == nil {
		err = serr
	}
	srv.Close()
	if err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	l.set("wire.gob_roundtrip_us", median(trips))
	l.set("wire.bytes_per_roundtrip", float64(counters.BytesSent()+counters.BytesReceived())/wireTrips)
	return nil
}

// updateShadow replays idle updates one rung down: it keeps a Ranker
// and warm solution of its own in step with the engine's graph and
// repeats, as child spans of an Engine.Update, the three things that
// update is made of.
type updateShadow struct {
	tr     *tracer
	eng    engine
	dg     *lmmrank.DocGraph
	rk     *lmm.Ranker
	site   lmmrank.Vector
	locals []lmmrank.Vector
}

// newUpdateShadow returns nil on an untraced run.
func newUpdateShadow(tr *tracer, eng engine) *updateShadow {
	if tr == nil {
		return nil
	}
	return &updateShadow{tr: tr, eng: eng, dg: eng.DocGraph()}
}

func (s *updateShadow) replay(ctx context.Context, e edit, parent int, l *layerMetrics) error {
	tr := s.tr
	_, isDist := s.eng.(*lmmrank.DistEngine)
	if s.rk == nil {
		rk, err := lmm.NewRanker(s.dg, lmm.RankerOptions{})
		if err != nil {
			return err
		}
		rk.Prepare()
		s.rk = rk
		if !isDist {
			wr, err := rk.Share().Rank(lmm.WebConfig{Ctx: ctx})
			if err != nil {
				return err
			}
			s.site, s.locals = wr.SiteRank.Clone(), cloneVectors(wr.LocalRanks)
		}
	}
	var work *lmmrank.DocGraph
	tr.do("graph.clone_cow", parent, 0, func() { work = s.dg.CloneCOW() })
	if err := e.apply(work); err != nil {
		return err
	}
	changed := []lmmrank.SiteID{e.Site}
	var next *lmm.Ranker
	var err error
	tr.do("lmm.rebuild_on", parent, 0, func() { next, err = s.rk.RebuildOn(work, changed) })
	if err != nil {
		return err
	}
	next.Prepare()
	if isDist {
		// A fleet update ships nothing itself; the next answer re-ships
		// the changed shard and reports what that cost.
		res, err := s.eng.Rank(ctx, lmmrank.Query{})
		if err != nil {
			return err
		}
		l.set("dist.update_shards_reshipped", float64(res.Dist.ShardsReshipped))
		l.set("dist.update_bytes", float64(res.Dist.BytesSent+res.Dist.BytesReceived))
		l.set("dist.cache_hits", float64(res.Dist.CacheHits))
	} else {
		var wr *lmm.WebResult
		tr.do("lmm.rank_refresh", parent, 0, func() {
			wr, err = next.Share().RankRefresh(changed, lmm.WebConfig{SiteStart: s.site, LocalStarts: s.locals, Ctx: ctx})
		})
		if err != nil {
			return err
		}
		s.site, s.locals = wr.SiteRank.Clone(), cloneVectors(wr.LocalRanks)
		l.set("lmm.rank_refresh_ms", tr.medianMs("lmm.rank_refresh"))
	}
	s.dg, s.rk = work, next
	l.set("graph.clone_cow_ms", tr.medianMs("graph.clone_cow"))
	l.set("lmm.rebuild_on_ms", tr.medianMs("lmm.rebuild_on"))
	return nil
}

func cloneVectors(vs []lmmrank.Vector) []lmmrank.Vector {
	out := make([]lmmrank.Vector, len(vs))
	for i, v := range vs {
		out[i] = v.Clone()
	}
	return out
}
