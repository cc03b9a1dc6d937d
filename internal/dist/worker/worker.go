// Package worker implements the peer side of the distributed Layered
// Method: a TCP server speaking wire's frames that hosts site shards,
// computes their local DocRanks with the same kernels as the in-process
// pipeline — the paper's Web server participating in decentralized
// ranking.
//
// A session is what its connection's last KindLoad declared; nothing
// else adds to or removes from it. Behind the sessions sits a
// worker-global, digest-keyed shard cache that survives coordinator
// reconnects: a coordinator re-ranking an unchanged graph declares its
// shards by digest instead of re-shipping subgraphs, and each cached
// shard keeps its local chain (an lmm.SubgraphSolver, transition matrix
// and no solver scratch) so repeated runs also skip rebuilding it.
package worker

import (
	"context"
	"fmt"
	"io"
	"maps"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"lmmrank/internal/dist/wire"
	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
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
// its last KindLoad declared. Scoping state to the connection isolates
// concurrent coordinators from each other — two fleets' runs over the
// same worker cannot clobber one another's shards (they can, by design,
// share cache entries).
type session struct {
	shards map[int]*shard
	// totalDocs is the aggregate hosted document count, which every Load
	// bounds by wire.MaxShardDocs; since a Load replaces the session, the
	// bound on one declaration is the bound on the session.
	totalDocs int

	// req is the exchange scratch: the serve loop decodes every request
	// whose payload nothing retains into it. It is dead once the response
	// is on the wire.
	req wire.Request
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
		// A load's shards outlive the exchange (the digest cache builds its
		// entries from them): that request owns its memory, every other
		// kind reuses the session's.
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
	default:
		return &wire.Response{Err: fmt.Sprintf("worker: unknown request kind %d", req.Kind)}
	}
}

// buildEntry validates one fully shipped shard and turns it into a
// cache entry (deduplicating against the global cache by digest, so an
// identical shard shipped twice — or hosted under two site IDs — shares
// one chain). The chain is built straight from the decoded columns,
// which the subgraph takes over as its packed base, its targets narrowed
// (graph.FromColumns checks them as DecodeBinary checks a graph file's);
// the subgraph is dropped once the chain is built.
func (w *Worker) buildEntry(s *wire.SiteShard, numSites int) (*cacheEntry, error) {
	if s.Site < 0 || s.Site >= numSites {
		return nil, fmt.Errorf("invalid shard (site %d of %d, %d docs)", s.Site, numSites, s.NumDocs())
	}
	digest := s.ContentDigest()
	if e := w.cache.lookupShard(digest); e != nil {
		return e, nil
	}
	sub, err := subgraph(s)
	if err != nil {
		return nil, err
	}
	return w.cache.addShard(&cacheEntry{
		digest:  digest,
		numDocs: s.NumDocs(),
		chain:   lmm.NewSubgraphSolver(sub),
	}), nil
}

// subgraph returns the shard's subgraph, checked, over its decoded
// columns themselves.
func subgraph(s *wire.SiteShard) (*graph.Digraph, error) {
	sub, err := graph.FromColumns(graph.Columns{Degrees: s.Degrees, Targets: s.Targets, ListedPos: s.ListedPos, ListedW: s.ListedW})
	if err != nil {
		return nil, fmt.Errorf("site %d: %w", s.Site, err)
	}
	return sub, nil
}

// handleLoad replaces the session with exactly what the request
// declares. Each Cached ref resolves against the session being replaced
// (same site, same digest: the shard stays, whatever the cache has
// evicted since), then against the digest cache; what neither holds is
// answered in Missing and left out. A request that is refused — a bad
// shard, a site named twice, more than wire.MaxShardDocs documents in
// all — leaves the previous session serving.
func (w *Worker) handleLoad(sess *session, req *wire.Request) *wire.Response {
	if req.NumSites < 0 || req.NumSites > wire.MaxSites {
		return &wire.Response{Err: fmt.Sprintf("worker: site space %d outside [0, %d]", req.NumSites, wire.MaxSites)}
	}
	// The shipped shards' documents alone must fit the bound before one
	// of them is built: a shard's graph and chain cost a few words a
	// document, so a Load past it is refused before it can claim them.
	shipped := 0
	for i := range req.Shards {
		if shipped += req.Shards[i].NumDocs(); shipped > wire.MaxShardDocs {
			return &wire.Response{Err: fmt.Sprintf("worker: load exceeds %d aggregate docs", wire.MaxShardDocs)}
		}
	}
	// next maps every declared site to its shard, nil for a missing one,
	// so a site named twice is caught however its two mentions resolve.
	next := make(map[int]*shard, len(req.Shards)+len(req.Cached))
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
	for i := range req.Shards {
		e, err := w.buildEntry(&req.Shards[i], req.NumSites)
		if err == nil {
			err = place(req.Shards[i].Site, &shard{site: req.Shards[i].Site, entry: e})
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
		if sh == nil {
			resp.Missing = append(resp.Missing, ref.Site)
		}
		if err := place(ref.Site, sh); err != nil {
			return &wire.Response{Err: "worker: " + err.Error()}
		}
	}
	for _, site := range resp.Missing {
		delete(next, site)
	}
	sess.shards, sess.totalDocs = next, totalDocs
	return resp
}

// handleRankLocal runs step 3 of §3.2 for the requested sites (all
// hosted sites when Request.Sites is empty), in parallel across the
// worker's cores — this is the computation the paper pushes out of the
// central server and onto the peers. Each shard ranks over its cache
// entry's chain, so repeated runs reuse its transition matrix, with a
// solver made for this request: its iterate is the answer, and nothing
// of it stays on the entry.
func handleRankLocal(sess *session, req *wire.Request) *wire.Response {
	sites := req.Sites
	if len(sites) == 0 {
		sites = slices.Collect(maps.Keys(sess.shards))
	}
	shards := make([]*shard, 0, len(sites))
	for _, s := range sites {
		sh, ok := sess.shards[s]
		if !ok {
			return &wire.Response{Err: fmt.Sprintf("worker: rank local of site %d not loaded", s)}
		}
		shards = append(shards, sh)
	}
	// Ascending site order: the answer's order does not follow the map's.
	sort.Slice(shards, func(a, b int) bool { return shards[a].site < shards[b].site })
	cfg := lmm.WebConfig{Damping: req.Damping, Tol: req.Tol, MaxIter: req.MaxIter}
	out := make([]wire.LocalRank, len(shards))
	errs := make([]error, len(shards))
	lmm.ForEachParallel(len(shards), 0, func(i int) {
		scores, iters, err := shards[i].entry.chain.Rank(cfg)
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

var _ io.Closer = (*Worker)(nil)
