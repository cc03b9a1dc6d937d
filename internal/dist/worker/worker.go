// Package worker implements the peer side of the distributed Layered
// Method: a TCP server speaking wire's frames that hosts site shards,
// computes their local DocRanks with the same kernels as the in-process
// pipeline, and answers SiteRank power rounds — one row-partition step
// at a time, or whole batches of rounds against a replicated site chain
// — the paper's Web server participating in decentralized ranking.
//
// A session is what its connection's last KindLoad declared; nothing
// else adds to or removes from it. Behind the sessions sits a
// worker-global, digest-keyed shard cache that survives coordinator
// reconnects: a coordinator re-ranking an unchanged graph declares its
// shards by digest instead of re-shipping subgraphs, and each cached
// shard keeps a warm lmm.SubgraphSolver so repeated runs also skip
// rebuilding transition matrices and solver scratch.
package worker

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"lmmrank/internal/dist/wire"
	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
)

// Stats summarizes a worker's transport and cache state since New.
type Stats struct {
	// Messages counts protocol requests served.
	Messages uint64
	// BytesReceived and BytesSent count raw socket traffic.
	BytesReceived uint64
	BytesSent     uint64
	// CacheEntries and CacheDocs gauge the digest-keyed shard cache:
	// distinct shards held and their aggregate document count.
	CacheEntries int
	CacheDocs    int
}

// shard is one hosted site of a session: the site ID under which this
// coordinator addresses it, and the cached content behind it.
type shard struct {
	site  int
	entry *cacheEntry
}

// session is the per-connection state of one coordinator: the shards
// and site chain its last KindLoad declared. Scoping state to the
// connection isolates concurrent coordinators from each other — two
// fleets' runs over the same worker cannot clobber one another's shards
// (they can, by design, share cache entries).
type session struct {
	shards   map[int]*shard
	numSites int
	// chain is the replicated site chain for KindBatchRounds under its
	// content digest, nil unless the last Load declared one.
	chain       *wire.SiteChain
	chainDigest wire.Digest
	// totalDocs is the aggregate hosted document count, which every Load
	// bounds by wire.MaxShardDocs; since a Load replaces the session, the
	// bound on one declaration is the bound on the session.
	totalDocs int
	// sorted caches sortedShards; nil after a Load.
	sorted []*shard
	// asyncEpoch is the current asynchronous accumulator generation and
	// asyncSweeps the KindAsyncUpdate sweeps served in it; KindAsyncAck
	// reports the count and retires the epoch. Epochs only move forward
	// for the life of the connection — no request rewinds them — so a
	// sweep duplicated past a drain cannot feed a retired accumulator.
	asyncEpoch  uint64
	asyncSweeps int

	// req and resp are the exchange scratch of the per-round kinds: the
	// serve loop decodes every request whose payload nothing retains
	// into req, and the SiteRank handlers answer from resp, whose
	// vectors are partial, next and tele below — all reused from one
	// round to the next, so a steady-state round allocates nothing. Each
	// is dead once the response is on the wire.
	req                 wire.Request
	resp                wire.Response
	partial, next, tele matrix.Vector
}

// reply returns the session's response scratch holding r.
func (s *session) reply(r wire.Response) *wire.Response {
	s.resp = r
	return &s.resp
}

// zeroed returns *v resized to n zeros, reusing its array.
func zeroed(v *matrix.Vector, n int) matrix.Vector {
	if cap(*v) < n {
		*v = matrix.NewVector(n)
	}
	*v = (*v)[:n]
	clear(*v)
	return *v
}

// sortedShards returns the loaded shards in ascending site order, the
// fixed iteration order both compute handlers rely on (map order would
// vary float summation and result ordering across runs). The slice is
// cached until the next Load so power rounds skip the re-sort.
func (s *session) sortedShards() []*shard {
	if s.sorted != nil {
		return s.sorted
	}
	out := make([]*shard, 0, len(s.shards))
	for _, sh := range s.shards {
		out = append(out, sh)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].site < out[b].site })
	s.sorted = out
	return out
}

// Worker is a distributed-ranking peer. Zero workers are not useful:
// construct with New, serve with Start, stop with Close (idempotent).
type Worker struct {
	counters wire.Counters
	cache    *shardCache

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	draining bool

	wg sync.WaitGroup
}

// New returns an idle worker holding no sites.
func New() *Worker {
	return &Worker{
		cache: newShardCache(),
		conns: make(map[net.Conn]struct{}),
	}
}

// Start listens on the given TCP address ("host:port"; port 0 picks a
// free one) and serves coordinator connections until Close. It returns
// the bound address, which is how loopback clusters learn their ports.
func (w *Worker) Start(listen string) (string, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.draining {
		return "", fmt.Errorf("worker: already closed")
	}
	if w.ln != nil {
		return "", fmt.Errorf("worker: already started")
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return "", fmt.Errorf("worker: listen %s: %w", listen, err)
	}
	w.ln = ln
	w.wg.Add(1)
	go w.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Close stops the listener, drops every open connection and waits for
// the serving goroutines to drain. Calling Close again is a no-op.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	ln := w.ln
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	w.wg.Wait()
	return err
}

// Shutdown stops the worker gracefully: it closes the listener (no new
// coordinators), lets every in-flight exchange finish and its response
// reach the wire, then hangs up the drained connections. Sessions
// blocked waiting for their coordinator's next request are unblocked
// immediately — there is nothing in flight to preserve. If ctx expires
// before the drain completes, Shutdown falls back to the abrupt Close
// and returns ctx.Err(). Calling Shutdown or Close again afterward is a
// no-op.
func (w *Worker) Shutdown(ctx context.Context) error {
	w.mu.Lock()
	if w.closed || w.draining {
		w.mu.Unlock()
		return nil
	}
	w.draining = true
	ln := w.ln
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	// A past read deadline fails the next blocking read without touching
	// writes: a handler mid-request still delivers its response, and the
	// serve loop exits at its next Decode (or on its post-response
	// draining check) instead of waiting for the coordinator to hang up.
	for _, c := range conns {
		c.SetReadDeadline(time.Unix(1, 0))
	}
	done := make(chan struct{})
	go func() {
		w.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		w.mu.Lock()
		w.closed = true
		w.mu.Unlock()
		return err
	case <-ctx.Done():
		w.Close()
		return ctx.Err()
	}
}

// Stats returns a snapshot of the transport counters and cache gauges.
func (w *Worker) Stats() Stats {
	entries, docs := w.cache.gauges()
	return Stats{
		Messages:      w.counters.Messages(),
		BytesReceived: w.counters.BytesReceived(),
		BytesSent:     w.counters.BytesSent(),
		CacheEntries:  entries,
		CacheDocs:     docs,
	}
}

func (w *Worker) acceptLoop(ln net.Listener) {
	defer w.wg.Done()
	backoff := 5 * time.Millisecond
	for {
		conn, err := ln.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed || w.draining
			w.mu.Unlock()
			if closed {
				return
			}
			// Transient accept failures (e.g. EMFILE under a connection
			// burst) must not silently kill serving while the process
			// stays up; retry with bounded backoff, as net/http does.
			time.Sleep(backoff)
			if backoff < time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = 5 * time.Millisecond
		w.mu.Lock()
		if w.closed || w.draining {
			w.mu.Unlock()
			conn.Close()
			return
		}
		w.conns[conn] = struct{}{}
		w.wg.Add(1)
		w.mu.Unlock()
		go w.serveConn(conn)
	}
}

func (w *Worker) serveConn(conn net.Conn) {
	defer w.wg.Done()
	defer func() {
		conn.Close()
		w.mu.Lock()
		delete(w.conns, conn)
		w.mu.Unlock()
	}()

	wc := wire.NewConn(conn, &w.counters)
	sess := &session{}
	for {
		// EOF and closed-connection errors are the coordinator hanging
		// up; a malformed frame is equally terminal for a strict
		// request/response stream.
		f, err := wc.Dec.ReadFrame()
		if err != nil {
			return
		}
		// A load's chain rows and site chain outlive the exchange (the
		// digest cache aliases them): that request owns its memory, every
		// other kind reuses the session's.
		req := &sess.req
		if f.Kind() == wire.KindLoad {
			req = new(wire.Request)
		}
		if err := f.Decode(req); err != nil {
			return
		}
		w.counters.AddMessage()
		resp := w.safeHandle(sess, req)
		if err := wc.Enc.Encode(resp); err != nil {
			return
		}
		w.mu.Lock()
		draining := w.draining
		w.mu.Unlock()
		if draining {
			// Graceful shutdown: the in-flight exchange just completed;
			// end the session instead of accepting another request.
			return
		}
	}
}

// safeHandle converts a handler panic into an error response, so one
// session's pathological request cannot take down the process (and the
// other coordinators' sessions with it). The request/response framing
// survives, keeping the connection usable.
func (w *Worker) safeHandle(sess *session, req *wire.Request) (resp *wire.Response) {
	defer func() {
		if r := recover(); r != nil {
			resp = &wire.Response{Err: fmt.Sprintf("worker: request kind %d panicked: %v", req.Kind, r)}
		}
	}()
	return w.handle(sess, req)
}

// handle dispatches one request. Requests of one connection arrive
// sequentially, so sess needs no locking (the shared cache locks
// itself).
func (w *Worker) handle(sess *session, req *wire.Request) *wire.Response {
	switch req.Kind {
	case wire.KindPing:
		return &wire.Response{}
	case wire.KindLoad:
		return w.handleLoad(sess, req)
	case wire.KindRankLocal:
		return handleRankLocal(sess, req)
	case wire.KindPowerRound:
		return handlePowerRound(sess, req)
	case wire.KindBatchRounds:
		return handleBatchRounds(sess, req)
	case wire.KindAsyncUpdate:
		return handleAsyncUpdate(sess, req)
	case wire.KindAsyncAck:
		return handleAsyncAck(sess, req)
	default:
		return &wire.Response{Err: fmt.Sprintf("worker: unknown request kind %d", req.Kind)}
	}
}

// buildEntry validates one fully shipped shard and turns it into a
// cache entry (deduplicating against the global cache by digest, so an
// identical shard shipped twice — or hosted under two site IDs — shares
// one subgraph and one warm solver).
func (w *Worker) buildEntry(s *wire.SiteShard, numSites int) (*cacheEntry, error) {
	if s.NumDocs < 0 || s.Site < 0 || s.Site >= numSites {
		return nil, fmt.Errorf("invalid shard (site %d of %d, %d docs)", s.Site, numSites, s.NumDocs)
	}
	digest := s.ContentDigest()
	if e := w.cache.lookupShard(digest); e != nil {
		if !e.rowWithin(numSites) {
			return nil, fmt.Errorf("site %d row column out of range", s.Site)
		}
		return e, nil
	}
	sub := graph.NewDigraph(s.NumDocs)
	for _, e := range s.Edges {
		if e.From < 0 || e.From >= s.NumDocs || e.To < 0 || e.To >= s.NumDocs ||
			!(e.Weight > 0) || math.IsInf(e.Weight, 0) {
			return nil, fmt.Errorf("site %d has invalid edge %d→%d (w=%g)", s.Site, e.From, e.To, e.Weight)
		}
		sub.AddEdge(e.From, e.To, e.Weight)
	}
	sub.Dedupe()
	if len(s.RowCols) != len(s.RowVals) {
		return nil, fmt.Errorf("site %d row arity mismatch", s.Site)
	}
	rowSum := 0.0
	for k, col := range s.RowCols {
		if col < 0 || col >= numSites {
			return nil, fmt.Errorf("site %d row column %d out of range", s.Site, col)
		}
		v := s.RowVals[k]
		if !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("site %d row value %g not a probability", s.Site, v)
		}
		rowSum += v
	}
	if len(s.RowCols) > 0 && math.Abs(rowSum-1) > 1e-6 {
		return nil, fmt.Errorf("site %d row sums to %g, want 1", s.Site, rowSum)
	}
	return w.cache.addShard(&cacheEntry{
		digest:  digest,
		numDocs: s.NumDocs,
		sub:     sub,
		rowCols: s.RowCols,
		rowVals: s.RowVals,
	}), nil
}

// validateChain checks a fully shipped site chain before it may enter
// the cache: a well-formed CSR whose non-empty rows are probability
// distributions over the site space.
func validateChain(c *wire.SiteChain, numSites int) error {
	if c.NumSites != numSites {
		return fmt.Errorf("chain over %d sites, want %d", c.NumSites, numSites)
	}
	if len(c.RowPtr) != numSites+1 || len(c.Cols) != len(c.Vals) {
		return fmt.Errorf("chain shape invalid (%d rowptr, %d cols, %d vals)",
			len(c.RowPtr), len(c.Cols), len(c.Vals))
	}
	if numSites > 0 && (c.RowPtr[0] != 0 || c.RowPtr[numSites] != len(c.Cols)) {
		return fmt.Errorf("chain rowptr does not span the value arrays")
	}
	for s := 0; s < numSites; s++ {
		lo, hi := c.RowPtr[s], c.RowPtr[s+1]
		if lo > hi || lo < 0 || hi > len(c.Cols) {
			return fmt.Errorf("chain row %d spans [%d,%d)", s, lo, hi)
		}
		rowSum := 0.0
		for k := lo; k < hi; k++ {
			if col := c.Cols[k]; col < 0 || col >= numSites {
				return fmt.Errorf("chain row %d column %d out of range", s, col)
			}
			v := c.Vals[k]
			if !(v > 0) || math.IsInf(v, 0) {
				return fmt.Errorf("chain row %d value %g not a probability", s, v)
			}
			rowSum += v
		}
		if hi > lo && math.Abs(rowSum-1) > 1e-6 {
			return fmt.Errorf("chain row %d sums to %g, want 1", s, rowSum)
		}
	}
	return nil
}

// handleLoad replaces the session with exactly what the request
// declares. Each Cached ref resolves against the session being replaced
// (same site, same digest: the shard stays, whatever the cache has
// evicted since), then against the digest cache; what neither holds is
// answered in Missing and left out. A request that is refused — a bad
// shard or chain, a site named twice, more than wire.MaxShardDocs
// documents in all — leaves the previous session serving.
func (w *Worker) handleLoad(sess *session, req *wire.Request) *wire.Response {
	if req.NumSites < 0 || req.NumSites > wire.MaxSites {
		return &wire.Response{Err: fmt.Sprintf("worker: site space %d outside [0, %d]", req.NumSites, wire.MaxSites)}
	}
	// Compressed shards are expanded (bounded) before validation; the
	// validation below treats them exactly like plainly shipped ones.
	fullShards := req.Shards
	if len(req.ShardsZ) > 0 {
		unpacked, err := wire.DecompressShards(req.ShardsZ)
		if err != nil {
			return &wire.Response{Err: "worker: " + err.Error()}
		}
		fullShards = append(fullShards[:len(fullShards):len(fullShards)], unpacked...)
	}
	// next maps every declared site to its shard, nil for a missing one,
	// so a site named twice is caught however its two mentions resolve.
	next := make(map[int]*shard, len(fullShards)+len(req.Cached))
	totalDocs := 0
	place := func(site int, sh *shard) error {
		if _, dup := next[site]; dup {
			return fmt.Errorf("site %d declared twice", site)
		}
		next[site] = sh
		if sh != nil {
			// Bound the aggregate before accepting, capping how much memory
			// a small request can claim (see wire.MaxShardDocs).
			if totalDocs += sh.entry.numDocs; totalDocs > wire.MaxShardDocs {
				return fmt.Errorf("load exceeds %d aggregate docs", wire.MaxShardDocs)
			}
		}
		return nil
	}
	for i := range fullShards {
		e, err := w.buildEntry(&fullShards[i], req.NumSites)
		if err == nil {
			err = place(fullShards[i].Site, &shard{site: fullShards[i].Site, entry: e})
		}
		if err != nil {
			return &wire.Response{Err: "worker: " + err.Error()}
		}
	}
	resp := &wire.Response{}
	for _, ref := range req.Cached {
		if ref.Site < 0 || ref.Site >= req.NumSites {
			return &wire.Response{Err: fmt.Sprintf("worker: cached site %d of %d out of range", ref.Site, req.NumSites)}
		}
		sh := sess.shards[ref.Site]
		if sh == nil || sh.entry.digest != ref.Digest {
			sh = nil
			if e := w.cache.lookupShard(ref.Digest); e != nil {
				sh = &shard{site: ref.Site, entry: e}
			}
		}
		// An entry's row columns were validated against the site space it
		// was first loaded into; re-check against this one (a hit from a
		// larger graph must not index past this iterate). One that does
		// not fit is as good as absent: shipped in full, it is refused.
		if sh != nil && !sh.entry.rowWithin(req.NumSites) {
			sh = nil
		}
		if sh == nil {
			resp.Missing = append(resp.Missing, ref.Site)
		}
		if err := place(ref.Site, sh); err != nil {
			return &wire.Response{Err: "worker: " + err.Error()}
		}
	}
	var chain *wire.SiteChain
	chainDigest := req.ChainDigest
	if req.Chain != nil {
		if err := validateChain(req.Chain, req.NumSites); err != nil {
			return &wire.Response{Err: "worker: " + err.Error()}
		}
		chain, chainDigest = req.Chain, req.Chain.ContentDigest()
		w.cache.addChain(chainDigest, chain)
	} else if req.HasChain {
		if chain = sess.chain; chain == nil || sess.chainDigest != chainDigest {
			chain = w.cache.lookupChain(chainDigest)
		}
		if chain == nil || chain.NumSites != req.NumSites {
			chain = nil
			resp.MissingChain = true
		}
	}
	for _, site := range resp.Missing {
		delete(next, site)
	}
	sess.shards, sess.numSites, sess.totalDocs = next, req.NumSites, totalDocs
	sess.chain, sess.chainDigest = chain, chainDigest
	sess.sorted = nil
	return resp
}

// handleRankLocal runs step 3 of §3.2 for the requested sites (all
// hosted sites when Request.Sites is empty), in parallel across the
// worker's cores — this is the computation the paper pushes out of the
// central server and onto the peers. Each shard ranks through its cache
// entry's warm SubgraphSolver, so repeated runs reuse transition
// matrices and solver scratch.
func handleRankLocal(sess *session, req *wire.Request) *wire.Response {
	var shards []*shard
	if len(req.Sites) == 0 {
		shards = sess.sortedShards()
	} else {
		shards = make([]*shard, 0, len(req.Sites))
		for _, s := range req.Sites {
			sh, ok := sess.shards[s]
			if !ok {
				return &wire.Response{Err: fmt.Sprintf("worker: rank local of site %d not loaded", s)}
			}
			shards = append(shards, sh)
		}
		sort.Slice(shards, func(a, b int) bool { return shards[a].site < shards[b].site })
	}
	cfg := lmm.WebConfig{Damping: req.Damping, Tol: req.Tol, MaxIter: req.MaxIter}
	out := make([]wire.LocalRank, len(shards))
	errs := make([]error, len(shards))
	lmm.ForEachParallel(len(shards), 0, func(i int) {
		scores, iters, err := shards[i].entry.rank(cfg)
		if err != nil {
			errs[i] = err
			return
		}
		out[i] = wire.LocalRank{Site: shards[i].site, Scores: scores, Iterations: iters}
	})
	for i, err := range errs {
		if err != nil {
			return &wire.Response{Err: fmt.Sprintf("worker: local docrank of site %d: %v", shards[i].site, err)}
		}
	}
	return &wire.Response{Local: out}
}

// handlePowerRound computes this worker's contribution to one SiteRank
// power step: partial[t] = Σ_{s owned} x[s]·M(G_S)[s,t], plus the
// iterate mass on owned dangling rows. The coordinator sums partials
// across the fleet and applies the damping/teleport correction, so the
// distributed iteration reproduces the central Mˆ power method.
func handlePowerRound(sess *session, req *wire.Request) *wire.Response {
	if req.NumSites != sess.numSites {
		return &wire.Response{Err: fmt.Sprintf("worker: power round over %d sites but %d loaded",
			req.NumSites, sess.numSites)}
	}
	shards := sess.sortedShards()

	if len(req.X) != req.NumSites {
		return &wire.Response{Err: fmt.Sprintf("worker: iterate length %d vs %d sites", len(req.X), req.NumSites)}
	}
	partial := zeroed(&sess.partial, req.NumSites)
	var dangling float64
	for _, sh := range shards {
		xs := req.X[sh.site]
		if len(sh.entry.rowCols) == 0 {
			dangling += xs
			continue
		}
		// Columns were range-checked at load time; the inner loop
		// stays branch-free.
		for k, col := range sh.entry.rowCols {
			partial[col] += xs * sh.entry.rowVals[k]
		}
	}
	return sess.reply(wire.Response{Partial: partial, DanglingMass: dangling})
}

// handleAsyncUpdate serves one barrier-free SiteRank sweep: the exact
// row-partition arithmetic of handlePowerRound plus the iterate mass on
// the owned sites — the asynchronous merge combines partials taken from
// different snapshots, so each contribution must carry its own mass for
// the teleport coefficient instead of relying on a shared Σx. The
// iterate is additionally checked finite: asynchronous iterates are
// merged under accumulator state the coordinator keeps across sweeps,
// where a NaN would propagate silently instead of failing a reduce.
func handleAsyncUpdate(sess *session, req *wire.Request) *wire.Response {
	if req.Epoch < sess.asyncEpoch {
		return &wire.Response{Err: fmt.Sprintf("worker: async sweep for drained epoch %d (current %d)",
			req.Epoch, sess.asyncEpoch)}
	}
	if req.NumSites != sess.numSites {
		return &wire.Response{Err: fmt.Sprintf("worker: async sweep over %d sites but %d loaded",
			req.NumSites, sess.numSites)}
	}
	if len(req.X) != req.NumSites {
		return &wire.Response{Err: fmt.Sprintf("worker: iterate length %d vs %d sites", len(req.X), req.NumSites)}
	}
	for _, v := range req.X {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return &wire.Response{Err: "worker: async sweep iterate is not finite"}
		}
	}
	if req.Epoch > sess.asyncEpoch {
		sess.asyncEpoch = req.Epoch
		sess.asyncSweeps = 0
	}
	partial := zeroed(&sess.partial, req.NumSites)
	var dangling, mass float64
	for _, sh := range sess.sortedShards() {
		xs := req.X[sh.site]
		mass += xs
		if len(sh.entry.rowCols) == 0 {
			dangling += xs
			continue
		}
		for k, col := range sh.entry.rowCols {
			partial[col] += xs * sh.entry.rowVals[k]
		}
	}
	sess.asyncSweeps++
	return sess.reply(wire.Response{Partial: partial, DanglingMass: dangling, Mass: mass, Epoch: req.Epoch})
}

// handleAsyncAck drains one asynchronous epoch: it reports the sweeps
// served under it (Response.Rounds) and retires every epoch up to and
// including the acknowledged one, so a sweep delayed past the drain is
// refused rather than double-counted. Acks for already-retired epochs
// are idempotent no-ops — a duplicated ack must not poison the session.
func handleAsyncAck(sess *session, req *wire.Request) *wire.Response {
	resp := sess.reply(wire.Response{Epoch: req.Epoch})
	if req.Epoch == sess.asyncEpoch {
		resp.Rounds = sess.asyncSweeps
	}
	if req.Epoch >= sess.asyncEpoch {
		sess.asyncEpoch = req.Epoch + 1
		sess.asyncSweeps = 0
	}
	return resp
}

// maxBatchRounds bounds the CPU one KindBatchRounds request can claim;
// generous next to matrix.DefaultMaxIter but finite for hostile peers.
const maxBatchRounds = 1 << 20

// handleBatchRounds runs up to req.Rounds damped SiteRank power rounds
// against the session's replicated chain, stopping early on
// convergence. Each round applies exactly the arithmetic of the
// coordinator's unbatched reduce — y = f·(x'M) + (f·danglingMass +
// (1−f)·Σx)·v with v uniform, then L1 normalization — so batched and
// unbatched runs agree to summation-order rounding (<1e-9), while K
// rounds cost one exchange instead of K.
func handleBatchRounds(sess *session, req *wire.Request) *wire.Response {
	if sess.chain == nil {
		return &wire.Response{Err: "worker: batch rounds without a loaded site chain"}
	}
	if req.NumSites != sess.numSites {
		return &wire.Response{Err: fmt.Sprintf("worker: batch rounds over %d sites but %d loaded",
			req.NumSites, sess.numSites)}
	}
	ns := req.NumSites
	if len(req.X) != ns {
		return &wire.Response{Err: fmt.Sprintf("worker: iterate length %d vs %d sites", len(req.X), ns)}
	}
	if req.Rounds < 1 || req.Rounds > maxBatchRounds {
		return &wire.Response{Err: fmt.Sprintf("worker: round budget %d outside [1, %d]", req.Rounds, maxBatchRounds)}
	}
	f := req.Damping
	if f == 0 {
		f = pagerank.DefaultDamping
	}
	if !(f > 0 && f < 1) {
		return &wire.Response{Err: fmt.Sprintf("worker: damping %g outside (0,1)", f)}
	}
	tol := req.Tol
	if tol == 0 {
		tol = matrix.DefaultTol
	}
	// An explicit teleport distribution (site-layer personalization)
	// replaces the uniform vector in the rank-one correction. It is
	// renormalized into a private copy so the arithmetic matches the
	// coordinator's central path regardless of client rounding.
	var tele matrix.Vector
	if len(req.V) > 0 {
		if len(req.V) != ns {
			return &wire.Response{Err: fmt.Sprintf("worker: teleport length %d vs %d sites", len(req.V), ns)}
		}
		sum := 0.0
		for _, v := range req.V {
			if !(v >= 0) || math.IsInf(v, 0) {
				return &wire.Response{Err: fmt.Sprintf("worker: teleport value %g not a probability", v)}
			}
			sum += v
		}
		if !(sum > 0) || math.IsInf(sum, 0) {
			return &wire.Response{Err: fmt.Sprintf("worker: teleport sums to %g", sum)}
		}
		tele = zeroed(&sess.tele, ns)
		for i, v := range req.V {
			tele[i] = v / sum
		}
	}
	chain := sess.chain
	uniform := 1.0 / float64(ns)
	x := matrix.Vector(req.X)
	next := zeroed(&sess.next, ns)
	var (
		rounds    int
		residual  float64
		converged bool
	)
	for r := 1; r <= req.Rounds; r++ {
		next.Fill(0)
		var dangMass float64
		for s := 0; s < ns; s++ {
			xs := x[s]
			lo, hi := chain.RowPtr[s], chain.RowPtr[s+1]
			if lo == hi {
				dangMass += xs
				continue
			}
			for k := lo; k < hi; k++ {
				next[chain.Cols[k]] += xs * chain.Vals[k]
			}
		}
		coeff := f*dangMass + (1-f)*x.Sum()
		if tele == nil {
			for t := range next {
				next[t] = f*next[t] + coeff*uniform
			}
		} else {
			for t := range next {
				next[t] = f*next[t] + coeff*tele[t]
			}
		}
		next.Normalize()
		residual = next.L1Diff(x)
		x, next = next, x
		rounds = r
		if residual <= tol {
			converged = true
			break
		}
	}
	return sess.reply(wire.Response{X: x, Rounds: rounds, Residual: residual, Converged: converged})
}

var _ io.Closer = (*Worker)(nil)
