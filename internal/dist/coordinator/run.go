package coordinator

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
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

// run is the state of one distributed ranking: the graph's wire form,
// and the mutable fleet view (who is alive, who owns which site) that
// loss recovery rewrites mid-flight.
type run struct {
	c     *Coordinator
	ctx   context.Context
	cfg   Config
	warm  Warm
	rk    *lmm.Ranker
	ns    int
	stats *Stats

	// digests names every site's shard; shards[s] is site s's payload
	// when this run extracted it to hash it, nil otherwise.
	digests *Digests
	shards  []*wire.SiteShard

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

	// rejoined marks the workers a redial loop reconnected since the
	// previous run: this run counts them in Stats.WorkersRejoined and what
	// it ships them in full in Stats.RejoinShardBytes.
	rejoined []bool

	// mu guards stats mutations from the concurrent per-worker
	// shipments (phase bookkeeping is otherwise sequential).
	mu sync.Mutex
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

// rankPrepared runs one ranking; the caller holds runMu.
func (c *Coordinator) rankPrepared(ctx context.Context, rk *lmm.Ranker, cfg Config, warm Warm) (*Result, error) {
	if c.isClosed() {
		return nil, errors.New("coordinator: closed")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A Ranker whose graph mutated after precomputation would ship stale
	// shards; refuse exactly like the in-process query paths do. Edit a
	// clone instead and run on lmm.Ranker.RebuildOn's Ranker (handing in
	// Digests.Drop of the sites the clone changed), or DistEngine.Update,
	// which does both.
	if rk.Stale() {
		return nil, fmt.Errorf("coordinator: %w", lmm.ErrGraphMutated)
	}
	// Validate the parameters up front, before any worker solves with them,
	// so the fleet rejects bad values exactly like the central path does.
	if f := cfg.damping(); !(f > 0 && f < 1) || !(cfg.Tol >= 0) || cfg.MaxIter < 0 {
		return nil, fmt.Errorf("coordinator: %w: damping %g, tolerance %g or iteration budget %d out of range", pagerank.ErrBadConfig, f, cfg.Tol, cfg.MaxIter)
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
		alive:    make([]bool, len(c.workers)),
		load:     make([]int, len(c.workers)),
		sessions: make([][]int, len(c.workers)),
		rejoined: make([]bool, len(c.workers)),
		budget:   cfg.Retry.MaxWorkerFailures,
	}
	// A worker that is still broken gets its redial loop; one a loop
	// reconnected since the last run joins this one, declared its share by
	// digest like every worker.
	for i, w := range c.workers {
		if w.isBroken() {
			c.redial(i, cfg.Retry)
			continue
		}
		r.alive[i] = true
		r.nAlive++
		if w.rejoined {
			w.rejoined, r.rejoined[i] = false, true
			res.Stats.WorkersRejoined++
		}
	}
	if r.nAlive == 0 {
		return nil, errors.New("coordinator: no live workers (every connection is broken)")
	}

	// Place and ship: LPT (or the pinned assignment) places sites over
	// the live fleet, and each live worker is told what its session holds.
	loadStart := time.Now()
	r.hashShards()
	r.owner = r.assignOwners()
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

	res.LocalRanks = localRanks
	res.LocalIterations = localIters
	res.Digests = r.digests

	res.Stats.RedialAttempts = int(c.redials.Swap(0))
	res.Stats.Messages = c.counters.Messages() - startMsgs
	res.Stats.BytesSent = c.counters.BytesSent() - startOut
	res.Stats.BytesReceived = c.counters.BytesReceived() - startIn
	return res, nil
}

// hashShards names every site's shard for the KindLoads: by the digest
// and wire size Warm.Digests carries for it, or by extracting the shard
// from the Ranker's graph and hashing it — the name a KindLoad declares
// it under. What it extracted the run keeps for its shipments;
// Stats.DigestBytesHashed counts what it hashed.
func (r *run) hashShards() {
	known := r.warm.Digests
	if known == nil || len(known.shards) > r.ns {
		known = &Digests{}
	}
	var todo []int
	for s := 0; s < r.ns; s++ {
		if s >= len(known.shards) || known.shards[s].size == 0 {
			todo = append(todo, s)
		}
	}
	r.digests = known
	if len(todo) == 0 {
		return
	}
	d := &Digests{shards: make([]shardDigest, r.ns)}
	copy(d.shards, known.shards)
	// Extraction, flattening and hashing of one site touch nothing another
	// site's do, and fan out across sites.
	r.shards = make([]*wire.SiteShard, r.ns)
	hashed := make([]uint64, len(todo))
	lmm.ForEachParallel(len(todo), 0, func(i int) {
		s := todo[i]
		shard := r.extract(s)
		d.shards[s] = shardDigest{digest: shard.ContentDigest(), size: shard.WireSize()}
		r.shards[s] = &shard
		hashed[i] = shard.DigestInputBytes()
	})
	for _, n := range hashed {
		r.stats.DigestBytesHashed += n
	}
	r.digests = d
}

// extract builds site s's shard from the Ranker's graph: its subgraph's
// columns — the listed links the subgraph's own arrays, its 2-byte
// targets widened into the 4-byte column the wire carries, the one copy
// of a link on the way.
func (r *run) extract(s int) wire.SiteShard {
	sub, _ := r.rk.LocalSubgraph(graph.SiteID(s))
	c := sub.Columns()
	return wire.SiteShard{Site: s, Degrees: c.Degrees, Targets: c.Targets, ListedPos: c.ListedPos, ListedW: c.ListedW}
}

// shard returns site s's payload for a shipment in full: the one this
// run extracted to hash it, or else a fresh extraction — a site the
// digests covered goes in full only when a worker reports it missing.
func (r *run) shard(s int) wire.SiteShard {
	if r.shards != nil && r.shards[s] != nil {
		return *r.shards[s]
	}
	return r.extract(s)
}

// siteDocs is site s's document count — the load a placement balances.
func (r *run) siteDocs(s int) int {
	return r.rk.DocGraph().SiteSize(graph.SiteID(s))
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

// lose marks worker idx dead for the rest of the run, starts its redial
// loop (a reconnect joins the next run), charges the retry budget, and
// moves every site it owned to the lightest surviving workers. It returns
// the moved sites — the caller re-ships and re-runs exactly those.
// Callers must invoke lose sequentially (after joining a parallel wave),
// never from inside one.
func (r *run) lose(idx int, cause error) (map[int]struct{}, error) {
	if !r.alive[idx] {
		// A second failure report for the same wave (e.g. two phases
		// racing is impossible, but two calls in one wave are not).
		return nil, nil
	}
	r.alive[idx] = false
	r.nAlive--
	r.sessions[idx] = nil
	r.stats.WorkersLost++
	r.c.redial(idx, r.cfg.Retry)
	addr := r.c.workers[idx].addr
	if r.budget <= 0 {
		return nil, fmt.Errorf("coordinator: worker %s lost with retry budget exhausted (RetryPolicy.MaxWorkerFailures=%d): %w",
			addr, r.cfg.Retry.MaxWorkerFailures, cause)
	}
	r.budget--
	if r.nAlive == 0 {
		return nil, fmt.Errorf("coordinator: all workers lost: %w", cause)
	}
	moved := make(map[int]struct{})
	for s, w := range r.owner {
		if w != idx {
			continue
		}
		nw := r.lightestAlive()
		r.owner[s] = nw
		r.load[nw] += r.siteDocs(s)
		moved[s] = struct{}{}
		r.stats.Reassignments++
	}
	r.load[idx] = 0
	return moved, nil
}

// ship delivers the needed sites to their current owners and leaves
// every live worker's session declared as exactly the sites it owns among
// those it held or now needs: a worker the run has not declared yet gets
// a Load even when shardless (it learns the site-space dimension), and
// one whose sites moved away gets the smaller set. Worker losses during
// shipping reassign and loop until every needed shard has landed.
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
			moved, lerr := r.lose(idx, err)
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
	// fullAt[s] is the request (counted from 1) that carries declared
	// site s in full, 0 while it has only gone by digest.
	fullAt := make(map[int]int, len(want))
	for _, s := range want {
		fullAt[s] = 0
	}
	for n := 1; ; n++ {
		req := &wire.Request{Kind: wire.KindLoad, NumSites: r.ns}
		for _, s := range want {
			if fullAt[s] == n {
				req.Shards = append(req.Shards, r.shard(s))
			} else {
				req.Cached = append(req.Cached, wire.ShardRef{Site: s, Digest: r.digests.shards[s].digest})
			}
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
		if len(resp.Missing) == 0 {
			break
		}
	}

	// Cache accounting, over what this shipment delivered: hits are the
	// refs the worker honored, reshipments the shards that went in full.
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range fresh {
		if fullAt[s] == 0 {
			r.stats.CacheHits++
			r.stats.ShardBytesSaved += r.digests.shards[s].size
			continue
		}
		r.stats.ShardsReshipped++
		if r.rejoined[idx] {
			r.stats.RejoinShardBytes += r.digests.shards[s].size
		}
	}
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
		// local ranks are still pending. A completed site's shard is dead
		// weight and stays unshipped.
		for _, i := range lost {
			moved, lerr := r.lose(idxs[i], errs[i])
			if lerr != nil {
				return nil, nil, lerr
			}
			for s := range moved {
				if done[s] {
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

// checkLocalRank is the one response validator of the document layer: a
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
