package coordinator

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"lmmrank/internal/dist/wire"
	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
)

// run is the state of one distributed ranking: the immutable per-site
// shard payloads, and the mutable fleet view (who is alive, who owns
// which site) that loss recovery rewrites mid-flight.
type run struct {
	c     *Coordinator
	ctx   context.Context
	cfg   Config
	warm  Warm
	rk    *lmm.Ranker
	ns    int
	stats *Stats
	// memoize marks runs over a caller-held Ranker (RankPrepared):
	// only those may usefully populate the coordinator's shard memo —
	// a one-shot Rank's throwaway Ranker can never hit again, and
	// storing it would both pin the payloads and evict a warm memo.
	memoize bool
	// tele is the normalized site-layer teleport (nil = uniform), shared
	// by every SiteRank mode so central, unbatched and batched runs
	// apply the same personalization vector.
	tele matrix.Vector

	// Per-site payloads, built once from the Ranker's precomputation.
	shards    []wire.SiteShard
	refs      []wire.ShardRef
	wireSizes []uint64
	// chain is the replicated site chain (round batching only).
	chain    *wire.SiteChain
	chainRef wire.Digest

	// Fleet view. alive/owner/load change on loss. sessions[idx] is the
	// ascending site set worker idx's session holds — what this run's
	// last KindLoad to it declared; nil until the run has declared one
	// (whatever an earlier run left there is replaced by the first) and
	// again once the worker is lost.
	alive    []bool
	nAlive   int
	owner    []int
	load     []int
	sessions [][]int
	budget   int

	// Re-admission (RetryPolicy.MaxRedials > 0). A redialer goroutine
	// per lost worker delivers fresh connections on rejoinCh; the
	// sequential phase code admits them at loop heads — safe points
	// where no partial results are in flight. redialing marks workers
	// with an active redialer (sequential access only); rejoining marks
	// workers mid-readmission for shipTo's byte accounting (r.mu).
	rejoinCh   chan rejoin
	redialStop chan struct{}
	redialWG   sync.WaitGroup
	redialing  []bool
	rejoining  map[int]bool
	inReadmit  bool

	// mu guards stats mutations from the concurrent per-worker
	// shipments (phase bookkeeping is otherwise sequential), and the
	// rejoining set they read.
	mu sync.Mutex
}

// rejoin is one successfully redialed worker awaiting re-admission.
type rejoin struct {
	idx  int
	conn net.Conn
}

// call performs one exchange with worker idx under the run's context
// and the coordinator's per-call timeout. The response is fresh: the
// caller may keep any part of it (the local phase keeps the scores).
func (r *run) call(idx int, req *wire.Request) (*wire.Response, error) {
	resp := new(wire.Response)
	if err := r.c.workers[idx].call(r.ctx, req, resp, &r.c.counters, r.c.callTimeout()); err != nil {
		return nil, err
	}
	return resp, nil
}

// exchange is call for the per-round SiteRank kinds: the answer lands in
// the worker's retained Response, so a round allocates nothing — and the
// caller must be done with it (or have copied out of it) before its next
// exchange with the same worker.
func (r *run) exchange(idx int, req *wire.Request) (*wire.Response, error) {
	w := r.c.workers[idx]
	if err := w.call(r.ctx, req, &w.round, &r.c.counters, r.c.callTimeout()); err != nil {
		return nil, err
	}
	return &w.round, nil
}

// fanOut runs fn(i, idxs[i]) for every listed worker concurrently and
// waits for all of them — one parallel wave of a phase.
func fanOut(idxs []int, fn func(i, idx int)) {
	var wg sync.WaitGroup
	for i, idx := range idxs {
		wg.Add(1)
		go func(i, idx int) {
			defer wg.Done()
			fn(i, idx)
		}(i, idx)
	}
	wg.Wait()
}

// rankPrepared runs one ranking; the caller holds runMu. memoize marks
// runs whose Ranker the caller retains (see run.memoize).
func (c *Coordinator) rankPrepared(ctx context.Context, rk *lmm.Ranker, cfg Config, warm Warm, memoize bool) (*Result, error) {
	if c.isClosed() {
		return nil, errors.New("coordinator: closed")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A Ranker whose graph mutated after precomputation would ship stale
	// shards (and, via the digest memo, stale digests); refuse exactly
	// like the in-process query paths do. Recover with lmm.Ranker.Rebuild
	// + RefreshPrepared, or DistEngine.Update, which does both.
	if rk.Stale() {
		return nil, fmt.Errorf("coordinator: %w", lmm.ErrGraphMutated)
	}
	// Validate damping up front so the distributed SiteRank path rejects
	// bad values exactly like the central pagerank path does.
	if f := cfg.damping(); f <= 0 || f >= 1 {
		return nil, fmt.Errorf("coordinator: %w: damping %g outside (0,1)", pagerank.ErrBadConfig, f)
	}
	if cfg.SiteRank < SiteRankCentral || cfg.SiteRank > SiteRankAsync {
		return nil, fmt.Errorf("coordinator: %w: unknown SiteRank mode %d", pagerank.ErrBadConfig, int(cfg.SiteRank))
	}
	if cfg.ThreeLayer {
		if cfg.SiteRank != SiteRankCentral {
			return nil, fmt.Errorf("coordinator: %w: ThreeLayer computes its site weights centrally and cannot combine with a distributed SiteRank mode", pagerank.ErrBadConfig)
		}
		if cfg.SitePersonalization != nil {
			return nil, fmt.Errorf("coordinator: %w: ThreeLayer replaces the site layer and cannot combine with SitePersonalization", pagerank.ErrBadConfig)
		}
	}

	startMsgs, startOut, startIn := c.counters.Messages(), c.counters.BytesSent(), c.counters.BytesReceived()
	res := &Result{}
	dg := rk.DocGraph()

	r := &run{
		c:        c,
		ctx:      ctx,
		cfg:      cfg,
		warm:     warm,
		rk:       rk,
		ns:       dg.NumSites(),
		stats:    &res.Stats,
		memoize:  memoize,
		alive:    make([]bool, len(c.workers)),
		load:     make([]int, len(c.workers)),
		sessions: make([][]int, len(c.workers)),
		budget:   cfg.Retry.MaxWorkerFailures,
	}
	if cfg.SitePersonalization != nil {
		if len(cfg.SitePersonalization) != r.ns {
			return nil, fmt.Errorf("coordinator: %w: site personalization length %d vs %d sites",
				pagerank.ErrBadConfig, len(cfg.SitePersonalization), r.ns)
		}
		if !cfg.SitePersonalization.IsDistribution(1e-6) {
			return nil, fmt.Errorf("coordinator: %w: site personalization is not a probability distribution",
				pagerank.ErrBadConfig)
		}
		r.tele = cfg.SitePersonalization.Clone().Normalize()
	}
	for i, w := range c.workers {
		if !w.isBroken() {
			r.alive[i] = true
			r.nAlive++
		}
	}
	if r.nAlive == 0 {
		return nil, errors.New("coordinator: no live workers (every connection is broken)")
	}
	// Arm re-admission before the first shipment: a worker that died in
	// an earlier run (or dies in this one) is redialed in the background
	// and folded back in at the next phase boundary.
	r.startRedialers()
	defer r.stopRedialers()

	// Partition and ship: the configured strategy (or pinned
	// assignment) places sites over the live fleet, and each live worker
	// is told what its session holds.
	loadStart := time.Now()
	r.buildShards()
	r.owner = r.assignOwners()
	r.computeCutStats()
	need := make(map[int]struct{}, r.ns)
	for s := 0; s < r.ns; s++ {
		need[s] = struct{}{}
	}
	if err := r.ship(need); err != nil {
		return nil, err
	}
	res.Stats.LoadDuration = time.Since(loadStart)

	// Step 3 on the fleet: the local DocRanks the caller does not hold.
	localStart := time.Now()
	localRanks, localIters, err := r.localPhase(dg)
	if err != nil {
		return nil, err
	}
	if res.Stats.LocalRanksReused < r.ns {
		res.Stats.LocalRankDuration = time.Since(localStart)
	}

	// Step 4: the upper layer(s) — three-layer weights, central SiteRank,
	// or the SiteRank driver over the fleet.
	siteStart := time.Now()
	var siteRank matrix.Vector
	switch {
	case cfg.ThreeLayer:
		tl, err := rk.ThreeLayerWeights(cfg.DomainOf, lmm.WebConfig{
			Damping: cfg.Damping,
			Tol:     cfg.Tol,
			MaxIter: cfg.MaxIter,
			Ctx:     ctx,
		})
		if err != nil {
			return nil, fmt.Errorf("coordinator: %w", err)
		}
		// ThreeLayerWeights allocates fresh vectors — no cloning needed.
		siteRank = tl.SiteWeights
		res.Domains = tl.Domains
		res.DomainRank = tl.DomainRank
		res.DomainOfSite = tl.DomainOfSite
		res.SiteEntry = tl.SiteEntry
	case cfg.SiteRank == SiteRankCentral:
		scores, rounds, err := rk.RankSites(lmm.WebConfig{
			Damping:             cfg.Damping,
			Tol:                 cfg.Tol,
			MaxIter:             cfg.MaxIter,
			SitePersonalization: r.tele,
			SiteStart:           warm.SiteStart,
			Ctx:                 ctx,
		})
		if err != nil {
			return nil, fmt.Errorf("coordinator: %w", err)
		}
		// RankSites aliases the Ranker's scratch; the Result outlives
		// this run, so copy the small site vector out.
		siteRank = scores.Clone()
		res.Stats.SiteRankRounds = rounds
	default:
		siteRank, res.Stats.SiteRankRounds, err = r.fleetSiteRank()
		if err != nil {
			return nil, err
		}
	}
	res.Stats.SiteRankDuration = time.Since(siteStart)

	// Step 5: composition by the Partition Theorem, shared with the
	// in-process pipeline.
	res.SiteRank = siteRank
	res.DocRank = lmm.ComposeDocRank(dg, siteRank, localRanks)
	res.LocalRanks = localRanks
	res.LocalIterations = localIters

	res.Stats.Messages = c.counters.Messages() - startMsgs
	res.Stats.BytesSent = c.counters.BytesSent() - startOut
	res.Stats.BytesReceived = c.counters.BytesReceived() - startIn
	return res, nil
}

// buildShards materializes every site's wire payload from the Ranker's
// precomputed subgraphs, plus each shard's content digest — the name a
// KindLoad declares it under. Site-chain rows ride inside the shards
// only when a row-partitioned SiteRank (synchronous one-round-at-a-time
// or asynchronous sweeps) will consume them; round batching ships the
// whole chain separately instead, and central mode ships no site-layer
// data at all.
//
// The payloads are memoized on the Coordinator per (Ranker, protocol
// shape), LRU-bounded across several prepared graphs: a warm
// RankPrepared run reuses every edge list and SHA-256 digest instead of
// recomputing them — Stats.DigestBytesHashed stays at zero — which is
// sound because a Ranker's graph is immutable by contract (mutation is
// detected and refused upstream). An entry migrated across an
// incremental Rebuild by RefreshPrepared is partial: only its dirty
// slots (and the small site chain) are rebuilt and re-hashed here, so
// churn costs digest work proportional to what changed.
func (r *run) buildShards() {
	wantRows := r.cfg.SiteRank.rowSharded()
	withChain := r.cfg.SiteRank == SiteRankBatched
	p := r.c.lookupPrep(r.rk, wantRows, withChain)
	if p != nil && p.complete() {
		r.shards, r.refs, r.wireSizes = p.shards, p.refs, p.wireSizes
		r.chain, r.chainRef = p.chain, p.chainRef
		return
	}
	if p == nil {
		p = newPreparedShards(r.rk, wantRows, withChain, r.ns)
	}

	// The Ranker retains no subgraphs, so each missing shard extracts its
	// own; extraction, flattening and hashing of one site touch nothing
	// another site's do, and fan out across sites.
	sg := r.rk.SiteGraph()
	hashed := make([]uint64, r.ns)
	lmm.ForEachParallel(r.ns, 0, func(s int) {
		if p.built[s] {
			return
		}
		sub, _ := r.rk.LocalSubgraph(graph.SiteID(s))
		shard := wire.SiteShard{Site: s, NumDocs: sub.NumNodes()}
		sub.EachEdgeAll(func(from int, e graph.Edge) {
			shard.Edges = append(shard.Edges, wire.Edge{From: from, To: e.To, Weight: e.Weight})
		})
		if wantRows {
			shard.RowCols, shard.RowVals = siteChainRow(sg.G, s)
		}
		p.shards[s] = shard
		p.refs[s] = wire.ShardRef{Site: s, Digest: shard.ContentDigest()}
		p.wireSizes[s] = shard.WireSize()
		p.built[s] = true
		hashed[s] = shard.DigestInputBytes()
	})
	for _, n := range hashed {
		r.stats.DigestBytesHashed += n
	}
	if withChain && p.chain == nil {
		chain := &wire.SiteChain{NumSites: r.ns, RowPtr: make([]int, r.ns+1)}
		for s := 0; s < r.ns; s++ {
			cols, vals := siteChainRow(sg.G, s)
			chain.Cols = append(chain.Cols, cols...)
			chain.Vals = append(chain.Vals, vals...)
			chain.RowPtr[s+1] = len(chain.Cols)
		}
		p.chain = chain
		p.chainRef = chain.ContentDigest()
		r.stats.DigestBytesHashed += chain.DigestInputBytes()
	}
	r.shards, r.refs, r.wireSizes = p.shards, p.refs, p.wireSizes
	r.chain, r.chainRef = p.chain, p.chainRef
	if r.memoize {
		r.c.storePrep(p)
	}
}

// siteChainRow returns row s of the normalized site chain M(G_S) in
// sparse form (nil, nil for a dangling site).
func siteChainRow(g *graph.Digraph, s int) (cols []int, vals []float64) {
	if total := g.OutWeight(s); total > 0 {
		g.EachEdge(s, func(e graph.Edge) {
			cols = append(cols, e.To)
			vals = append(vals, e.Weight/total)
		})
	}
	return cols, vals
}

// aliveIdxs returns the live fleet indices in ascending order — the
// fixed reduce order that keeps float summation deterministic.
func (r *run) aliveIdxs() []int {
	idxs := make([]int, 0, r.nAlive)
	for i, a := range r.alive {
		if a {
			idxs = append(idxs, i)
		}
	}
	return idxs
}

// lightestAlive returns the live worker with the least assigned
// document load (ties toward the lower index).
func (r *run) lightestAlive() int {
	best := -1
	for i, a := range r.alive {
		if !a {
			continue
		}
		if best < 0 || r.load[i] < r.load[best] {
			best = i
		}
	}
	return best
}

// lose marks worker idx dead for the rest of the run, charges the retry
// budget, and (when reassign is set) moves every site it owned to the
// lightest surviving workers. It returns the moved sites — the caller
// re-ships and re-runs exactly those. Batched SiteRank failover passes
// reassign=false: the chain is replicated, so nothing needs to move.
// Callers must invoke lose sequentially (after joining a parallel
// wave), never from inside one.
func (r *run) lose(idx int, cause error, reassign bool) (map[int]struct{}, error) {
	if !r.alive[idx] {
		// A second failure report for the same wave (e.g. two phases
		// racing is impossible, but two calls in one wave are not).
		return nil, nil
	}
	r.alive[idx] = false
	r.nAlive--
	r.sessions[idx] = nil
	r.stats.WorkersLost++
	addr := r.c.workers[idx].addr
	if r.budget <= 0 {
		return nil, fmt.Errorf("coordinator: worker %s lost with retry budget exhausted (RetryPolicy.MaxWorkerFailures=%d): %w",
			addr, r.cfg.Retry.MaxWorkerFailures, cause)
	}
	r.budget--
	if r.nAlive == 0 {
		return nil, fmt.Errorf("coordinator: all workers lost: %w", cause)
	}
	r.spawnRedialer(idx)
	if !reassign {
		return nil, nil
	}
	moved := make(map[int]struct{})
	for s, w := range r.owner {
		if w != idx {
			continue
		}
		nw := r.lightestAlive()
		r.owner[s] = nw
		r.load[nw] += r.shards[s].NumDocs
		moved[s] = struct{}{}
		r.stats.Reassignments++
	}
	r.load[idx] = 0
	return moved, nil
}

// startRedialers arms the re-admission machinery when the policy asks
// for it, spawning a redialer for every worker already broken when the
// run began (a peer that died in a previous run gets its chance back
// too, not just mid-run casualties).
func (r *run) startRedialers() {
	if r.cfg.Retry.MaxRedials <= 0 {
		return
	}
	r.rejoinCh = make(chan rejoin, len(r.c.workers))
	r.redialStop = make(chan struct{})
	r.redialing = make([]bool, len(r.c.workers))
	r.rejoining = make(map[int]bool)
	for i, a := range r.alive {
		if !a {
			r.spawnRedialer(i)
		}
	}
}

// spawnRedialer starts the background redial loop for a lost worker:
// jittered exponential backoff between attempts, at most MaxRedials
// attempts, delivering at most one fresh connection to rejoinCh. Called
// only from the sequential phase code (run start, lose, readmit).
func (r *run) spawnRedialer(idx int) {
	if r.rejoinCh == nil || r.redialing[idx] {
		return
	}
	r.redialing[idx] = true
	addr := r.c.workers[idx].addr
	pol := r.cfg.Retry
	r.redialWG.Add(1)
	go func() {
		defer r.redialWG.Done()
		for attempt := 0; attempt < pol.MaxRedials; attempt++ {
			select {
			case <-time.After(backoffDelay(pol.redialBase(), pol.redialMax(), attempt)):
			case <-r.redialStop:
				return
			case <-r.ctx.Done():
				return
			}
			r.mu.Lock()
			r.stats.RedialAttempts++
			r.mu.Unlock()
			conn, err := net.DialTimeout("tcp", addr, DefaultDialTimeout)
			if err != nil {
				continue
			}
			// The channel holds one slot per worker and a worker has at
			// most one redialer, so this send never blocks.
			select {
			case r.rejoinCh <- rejoin{idx: idx, conn: conn}:
			default:
				conn.Close()
			}
			return
		}
	}()
}

// stopRedialers tears the re-admission machinery down at run end. A
// connection that arrived too late to be admitted into this run is not
// wasted: it is installed on the coordinator's remote, so the next run
// starts with the peer alive again.
func (r *run) stopRedialers() {
	if r.rejoinCh == nil {
		return
	}
	close(r.redialStop)
	r.redialWG.Wait()
	for {
		select {
		case rj := <-r.rejoinCh:
			if r.c.isClosed() {
				rj.conn.Close()
			} else {
				r.c.workers[rj.idx].reconnect(rj.conn, &r.c.counters)
			}
		default:
			return
		}
	}
}

// maybeReadmit admits any rejoined workers waiting on the channel. It
// is called at phase loop heads — the safe points where no partial
// results are in flight — and never reentrantly (a readmission's own
// shipping must not trigger another).
func (r *run) maybeReadmit() error {
	if r.rejoinCh == nil || r.inReadmit {
		return nil
	}
	r.inReadmit = true
	defer func() { r.inReadmit = false }()
	for {
		select {
		case rj := <-r.rejoinCh:
			if err := r.readmit(rj); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

// readmit re-admits one redialed worker mid-run: probe the fresh
// connection, restore the worker to the fleet view, and rebalance its
// ideal share of sites back to it. One ship does the rest: the rejoiner
// is declared its share (by digest — a warm rejoiner re-ships ~0 bytes)
// and the interim owners are declared what they are left with, so the
// unbatched power round never reduces a chain row twice.
func (r *run) readmit(rj rejoin) error {
	idx := rj.idx
	r.c.workers[idx].reconnect(rj.conn, &r.c.counters)
	// Probe before committing: a connection that dies immediately costs
	// a respawned redialer, not a loss-budget charge.
	if _, err := r.call(idx, &wire.Request{Kind: wire.KindPing}); err != nil {
		if errors.Is(err, errLost) {
			r.redialing[idx] = false
			r.spawnRedialer(idx)
			return nil
		}
		return err
	}
	r.redialing[idx] = false
	r.alive[idx] = true
	r.nAlive++
	r.load[idx] = 0
	r.stats.WorkersRejoined++

	// Rebalance back: recompute the ideal placement over the restored
	// fleet and move exactly the sites whose ideal owner is the
	// rejoiner. Strategies are deterministic (and a pinned assignment
	// is fixed outright), so when the fleet's liveness returns to what
	// it was at run start these are precisely the sites the rejoiner
	// held before it died — warm in its digest cache.
	ideal := r.idealOwners()
	moved := make(map[int]struct{})
	for s := 0; s < r.ns; s++ {
		if ideal[s] != idx || r.owner[s] == idx {
			continue
		}
		r.load[r.owner[s]] -= r.shards[s].NumDocs
		r.owner[s] = idx
		r.load[idx] += r.shards[s].NumDocs
		moved[s] = struct{}{}
	}
	r.mu.Lock()
	r.rejoining[idx] = true
	r.mu.Unlock()
	// The rejoiner's session is undeclared, so ship reaches it even when
	// the ideal assignment hands it nothing: it learns the dimension (and
	// the chain, when batching) and can serve power rounds.
	err := r.ship(moved)
	r.mu.Lock()
	delete(r.rejoining, idx)
	r.mu.Unlock()
	return err
}

// ship delivers the needed sites to their current owners and leaves
// every live worker's session declared as exactly the sites it owns among
// those it held or now needs: a worker the run has not declared yet gets
// a Load even when shardless (it learns the site-space dimension — and
// the chain, when batching), and one whose sites moved away gets the
// smaller set. Worker losses during shipping reassign and loop until
// every needed shard has landed.
func (r *run) ship(need map[int]struct{}) error {
	for {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		want := make([][]int, len(r.c.workers))
		fresh := make([][]int, len(r.c.workers))
		for idx, held := range r.sessions {
			want[idx] = []int{}
			for _, s := range held {
				if _, again := need[s]; r.owner[s] == idx && !again {
					want[idx] = append(want[idx], s)
				}
			}
		}
		for s := range need {
			want[r.owner[s]] = append(want[r.owner[s]], s)
			fresh[r.owner[s]] = append(fresh[r.owner[s]], s)
		}
		var idxs []int
		for idx := range want {
			sort.Ints(want[idx])
			if r.alive[idx] && (r.sessions[idx] == nil || !slices.Equal(want[idx], r.sessions[idx])) {
				idxs = append(idxs, idx)
			}
		}
		if len(idxs) == 0 {
			return nil
		}
		errs := make([]error, len(idxs))
		fanOut(idxs, func(i, idx int) {
			errs[i] = r.shipTo(idx, want[idx], fresh[idx])
		})
		for i, idx := range idxs {
			err := errs[i]
			if err == nil {
				r.sessions[idx] = want[idx]
				for _, s := range fresh[idx] {
					delete(need, s)
				}
				continue
			}
			if !errors.Is(err, errLost) {
				return err
			}
			// Every site the dead worker owned — already delivered in an
			// earlier wave or still pending — moves to a survivor and
			// must ship (again) to its new owner on the next pass.
			moved, lerr := r.lose(idx, err, true)
			if lerr != nil {
				return lerr
			}
			for s := range moved {
				need[s] = struct{}{}
			}
			r.stats.Retries++
		}
	}
}

// shipTo declares worker idx's session: exactly the sites in want, of
// which fresh are the ones this shipment delivers (the rest the session
// holds already). The first Load is optimistic — every site by digest —
// and the worker answers the ones it holds nowhere; each further Load is
// the same declaration with the latest misses in full, until none is
// left. Missing is a set of declared refs: a site the worker repeats,
// was never told about, or was already sent in full is a peer
// answering wrongly, an error and never retried.
func (r *run) shipTo(idx int, want, fresh []int) error {
	w := r.c.workers[idx]
	first := r.sessions[idx] == nil
	// fullAt[s] is the request (counted from 1) that carries declared
	// site s in full, 0 while it has only gone by digest; chainAt is the
	// same for the chain.
	fullAt := make(map[int]int, len(want))
	for _, s := range want {
		fullAt[s] = 0
	}
	chainAt := 0
	for n := 1; ; n++ {
		req := &wire.Request{Kind: wire.KindLoad, NumSites: r.ns, HasChain: r.chain != nil, ChainDigest: r.chainRef}
		if chainAt == n {
			req.Chain = r.chain
		}
		var full []wire.SiteShard
		for _, s := range want {
			if fullAt[s] == n {
				full = append(full, r.shards[s])
			} else {
				req.Cached = append(req.Cached, r.refs[s])
			}
		}
		if err := r.packShards(req, full); err != nil {
			return err
		}
		resp, err := r.call(idx, req)
		if err != nil {
			return err
		}
		for _, s := range resp.Missing {
			if at, declared := fullAt[s]; !declared {
				return fmt.Errorf("coordinator: %s reports un-declared site %d missing", w.addr, s)
			} else if at != 0 {
				return fmt.Errorf("coordinator: %s reports site %d missing twice, or after it was shipped in full", w.addr, s)
			}
			fullAt[s] = n + 1
		}
		if resp.MissingChain {
			if r.chain == nil || chainAt != 0 {
				return fmt.Errorf("coordinator: %s reports a site chain missing that was not declared, or was shipped in full", w.addr)
			}
			chainAt = n + 1
		}
		if len(resp.Missing) == 0 && !resp.MissingChain {
			break
		}
	}

	// Cache accounting, over what this shipment delivered: hits are the
	// refs the worker honored, misses the shards that went in full. The
	// chain counts once per worker, with its first declaration.
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range fresh {
		if fullAt[s] == 0 {
			r.stats.CacheHits++
			r.stats.ShardsReused++
			r.stats.ShardBytesSaved += r.wireSizes[s]
			continue
		}
		r.stats.CacheMisses++
		r.stats.ShardsReshipped++
		if r.rejoining[idx] {
			// Shard payloads this re-admission had to move in full — ~0 for
			// a warm rejoiner, whose shards all hit its digest cache.
			r.stats.RejoinShardBytes += r.wireSizes[s]
		}
	}
	if r.chain != nil && first {
		if chainAt != 0 {
			r.stats.CacheMisses++
		} else {
			r.stats.CacheHits++
			r.stats.ShardBytesSaved += r.chain.WireSize()
		}
	}
	return nil
}

// packShards places the fully shipped shard batch into a KindLoad
// request — plainly, or flate-compressed when Config.Compress is on,
// recording raw vs compressed bytes. Called from concurrent per-worker
// shipments, hence the stats lock.
func (r *run) packShards(req *wire.Request, full []wire.SiteShard) error {
	if len(full) == 0 {
		return nil
	}
	if !r.cfg.Compress {
		req.Shards = full
		return nil
	}
	z, raw, err := wire.CompressShards(full)
	if err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
	req.ShardsZ = z
	r.mu.Lock()
	r.stats.ShardBytesRaw += uint64(raw)
	r.stats.ShardBytesCompressed += uint64(len(z))
	r.mu.Unlock()
	return nil
}

// localPhase gathers the local DocRank of every site Warm.Locals does
// not already answer from that site's owner — a fully warm run sends no
// KindRankLocal at all — re-ranking only reassigned sites when a worker
// dies mid-phase.
func (r *run) localPhase(dg *graph.DocGraph) ([]matrix.Vector, []int, error) {
	localRanks := make([]matrix.Vector, r.ns)
	localIters := make([]int, r.ns)
	done := make([]bool, r.ns)
	for s := 0; s < min(r.ns, len(r.warm.Locals)); s++ {
		if known := r.warm.Locals[s]; len(known) == dg.SiteSize(graph.SiteID(s)) {
			localRanks[s], done[s] = known, true
			r.stats.LocalRanksReused++
		}
	}
	for {
		if err := r.ctx.Err(); err != nil {
			return nil, nil, err
		}
		if err := r.maybeReadmit(); err != nil {
			return nil, nil, err
		}
		targets := make(map[int][]int)
		for s := 0; s < r.ns; s++ {
			if !done[s] {
				targets[r.owner[s]] = append(targets[r.owner[s]], s)
			}
		}
		if len(targets) == 0 {
			break
		}
		idxs := slices.Sorted(maps.Keys(targets))
		resps := make([]*wire.Response, len(idxs))
		errs := make([]error, len(idxs))
		fanOut(idxs, func(i, idx int) {
			resps[i], errs[i] = r.call(idx, &wire.Request{
				Kind:    wire.KindRankLocal,
				Damping: r.cfg.Damping,
				Tol:     r.cfg.Tol,
				MaxIter: r.cfg.MaxIter,
				Sites:   targets[idx],
			})
		})
		var lost []int // positions in idxs
		for i, idx := range idxs {
			if err := errs[i]; err != nil {
				if errors.Is(err, errLost) {
					lost = append(lost, i)
					continue
				}
				return nil, nil, err
			}
			want := make(map[int]bool, len(targets[idx]))
			for _, s := range targets[idx] {
				want[s] = true
			}
			got := 0
			for _, lr := range resps[i].Local {
				if lr.Site < 0 || lr.Site >= r.ns || !want[lr.Site] {
					return nil, nil, fmt.Errorf("coordinator: %s returned rank for site %d it was not asked for",
						r.c.workers[idx].addr, lr.Site)
				}
				if done[lr.Site] {
					continue
				}
				if err := r.checkLocalRank(idx, lr, dg.SiteSize(graph.SiteID(lr.Site))); err != nil {
					return nil, nil, err
				}
				localRanks[lr.Site] = lr.Scores
				localIters[lr.Site] = lr.Iterations
				done[lr.Site] = true
				got++
			}
			if got != len(targets[idx]) {
				return nil, nil, fmt.Errorf("coordinator: %s answered %d of %d requested local ranks",
					r.c.workers[idx].addr, got, len(targets[idx]))
			}
		}
		// Re-ship only what the survivors will actually use: sites whose
		// local ranks are still pending, plus — in the modes where chain
		// rows ride inside the shards (synchronous unbatched and async) —
		// every moved site, since the power sweeps will need its row. In
		// central and batched modes a completed site's shard is dead
		// weight and stays unshipped.
		needRows := r.cfg.SiteRank.rowSharded()
		for _, i := range lost {
			moved, lerr := r.lose(idxs[i], errs[i], true)
			if lerr != nil {
				return nil, nil, lerr
			}
			for s := range moved {
				if done[s] && !needRows {
					delete(moved, s)
				}
			}
			if len(moved) > 0 {
				if err := r.ship(moved); err != nil {
					return nil, nil, err
				}
			}
			r.stats.Retries++
		}
	}
	return localRanks, localIters, nil
}

// checkLocalRank is checkSiteVector's twin for the document layer: a
// site's local DocRank must be a probability distribution over exactly
// its documents. The caller may retain the vector and compose every
// later answer from it, so one malformed response would outlive its run;
// it is an error naming the worker instead, and — like any answer from a
// live peer — never retried.
func (r *run) checkLocalRank(idx int, lr wire.LocalRank, size int) error {
	addr := r.c.workers[idx].addr
	if len(lr.Scores) != size {
		return fmt.Errorf("coordinator: %s returned %d local ranks for site %d, want %d", addr, len(lr.Scores), lr.Site, size)
	}
	var sum float64
	for d, x := range lr.Scores {
		if !(x >= 0) || math.IsInf(x, 1) {
			return fmt.Errorf("coordinator: %s returned local rank %g for document %d of site %d", addr, x, d, lr.Site)
		}
		sum += x
	}
	if size > 0 && math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("coordinator: %s returned local ranks summing to %g for site %d", addr, sum, lr.Site)
	}
	return nil
}
