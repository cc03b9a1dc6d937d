// Package coordinator implements the central side of the distributed
// Layered Method (§3.2 run across a fleet): it partitions a DocGraph by
// site over TCP workers speaking wire's frames and gathers every site's
// local DocRank from the peers. A run returns those local DocRanks and
// nothing of the site layer: the caller solves πS on its own Ranker, or
// weighs the sites its own way, and composes its answer by the Partition
// Theorem (lmm.ComposeDocRank).
//
// The runtime is production-shaped along three axes. Fault tolerance:
// with a RetryPolicy budget, a peer dying mid-run is detected at the
// failing exchange, its site shards are reassigned to the lightest
// surviving workers and only the affected work is re-run; with
// MaxRedials the peer is redialed in the background and joins the next
// run. Placement:
// sites go to workers by weighted LPT over their document counts, so
// one giant site cannot serialize the fleet; no message carries a link
// between workers, so load balance is all a placement decides. Wire cost:
// shards are content-addressed and a worker's session is declared by
// digest — one KindLoad names what it must hold, and only what the
// worker reports missing is shipped (repeated runs over an unchanged
// graph ship near-zero shard bytes). All of it is accounted in per-run
// Stats.
package coordinator

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lmmrank/internal/dist/wire"
	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
)

// DefaultDialTimeout bounds Dial per worker so a dead address fails
// fast instead of hanging a cluster bring-up.
const DefaultDialTimeout = 3 * time.Second

// DefaultCallTimeout bounds each request/response exchange so a stalled
// (but not closed) peer — a partitioned host, a stopped process —
// surfaces as an error instead of wedging a run forever. Generous,
// because one exchange may cover a worker's whole local-rank batch.
const DefaultCallTimeout = 2 * time.Minute

// RetryPolicy bounds how much mid-run fault tolerance a distributed
// run buys. The zero value preserves strict behavior: the first worker
// loss fails the run.
type RetryPolicy struct {
	// MaxWorkerFailures is how many worker losses one run may absorb.
	// Each loss marks the peer dead for the rest of the run, reassigns
	// its site shards to the surviving workers (lightest-loaded first)
	// and re-runs only the affected work: the undelivered shards or the
	// lost sites' local DocRanks.
	// Worker-side errors (a live peer answering with Response.Err) are
	// never retried — they mean a protocol or input bug, not a death.
	MaxWorkerFailures int

	// MaxRedials enables rejoining: a peer a run loses (or finds broken
	// at its start) is redialed in the background up to this many times
	// with jittered exponential backoff, by a loop the Coordinator owns
	// and Close ends. A reconnected peer answers a Ping and joins the
	// next run, which places the sites over the restored fleet and
	// declares the rejoiner its share by digest against its surviving
	// cache (a warm rejoiner re-ships 0 shard bytes). A run never waits
	// for a redial. 0 keeps a lost worker lost.
	MaxRedials int
	// RedialBase and RedialMax shape the backoff between redial
	// attempts: attempt k sleeps base·2^k capped at max, scaled by a
	// uniform jitter in [0.5, 1.5) so a fleet of coordinators does not
	// thunder onto a restarting worker. Zero values select
	// DefaultRedialBase and DefaultRedialMax.
	RedialBase time.Duration
	RedialMax  time.Duration
}

// DefaultRedialBase and DefaultRedialMax are the redial backoff bounds
// when RetryPolicy leaves them zero: quick first probes (a restarting
// worker is usually back in milliseconds on a LAN) backing off to a
// respectful steady-state poll.
const (
	DefaultRedialBase = 50 * time.Millisecond
	DefaultRedialMax  = 2 * time.Second
)

func (p RetryPolicy) redialBase() time.Duration {
	if p.RedialBase <= 0 {
		return DefaultRedialBase
	}
	return p.RedialBase
}

func (p RetryPolicy) redialMax() time.Duration {
	if p.RedialMax <= 0 {
		return DefaultRedialMax
	}
	return p.RedialMax
}

// backoffDelay returns the jittered exponential-backoff delay for the
// 0-based attempt: base·2^attempt capped at max, scaled by a uniform
// random factor in [0.5, 1.5).
func backoffDelay(base, max time.Duration, attempt int) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return time.Duration((0.5 + rand.Float64()) * float64(d))
}

// Config parameterizes one distributed ranking run.
type Config struct {
	// Damping is the PageRank damping factor / gatekeeper α. Zero is a
	// sentinel selecting pagerank.DefaultDamping (0.85); an explicit
	// damping of exactly 0 cannot be requested, while tiny positive
	// values are honored as given.
	Damping float64
	// Tol and MaxIter bound every worker's local solve (0 = package
	// matrix defaults). A solve stops at the first sweep that moves the
	// normalized iterate by at most Tol in L1, which leaves it within
	// Tol/(1 − f) of the exact answer (docs/ARCHITECTURE.md, "The
	// solve"); MaxIter caps its sweeps.
	Tol     float64
	MaxIter int
	// Retry controls mid-run fault tolerance; the zero value disables
	// recovery.
	Retry RetryPolicy
	// Assignment, when non-nil, pins the site→shard placement instead
	// of the weighted-LPT default: Assignment[s] is the abstract shard of
	// site s, and shard j maps onto the j-th live worker in ascending
	// fleet order. A pin that does not fit (wrong length, or an owner
	// outside the live fleet after a permanent loss) falls back to LPT.
	// The Partition Theorem makes every placement rank-identical.
	Assignment []int
}

func (c Config) damping() float64 {
	if c.Damping == 0 {
		return pagerank.DefaultDamping
	}
	return c.Damping
}

// Stats breaks down the cost of a distributed run.
type Stats struct {
	// LoadDuration covers partitioning and shipping the site shards.
	LoadDuration time.Duration
	// LocalRankDuration covers the fleet-wide local DocRank phase; it is
	// 0 when Warm.Locals answered every site and the fleet was not asked.
	LocalRankDuration time.Duration
	// Deprecated: always 0. No run solves the site layer.
	SiteRankDuration time.Duration
	// Deprecated: always 0. No run solves the site layer.
	SiteRankRounds int
	// Messages counts request/response exchanges; BytesSent and
	// BytesReceived count raw bytes across the coordinator's sockets,
	// measured on the wire rather than estimated.
	Messages      uint64
	BytesSent     uint64
	BytesReceived uint64
	// WorkersLost counts peers that died mid-run; Reassignments counts
	// site shards moved to a surviving worker because of those losses;
	// Retries counts recovery re-executions (a re-ranked shard batch, a
	// re-shipped wave).
	WorkersLost   int
	Reassignments int
	Retries       int
	// WorkersRejoined counts the peers a redial loop
	// (RetryPolicy.MaxRedials) reconnected since the previous run: the
	// first run after a reconnect counts it, and RejoinShardBytes is the
	// encoded size of the shards that run shipped to its rejoiners in full
	// — 0 when a rejoiner's digest cache is warm, which is the whole point
	// of rejoining over replacement. RedialAttempts counts the loops'
	// dials, successful or not, since the previous run that returned a
	// Result: each is counted by exactly one run.
	WorkersRejoined  int
	RedialAttempts   int
	RejoinShardBytes uint64
	// CacheHits counts the site shards the run activated from worker
	// sessions and caches by digest instead of shipping; ShardsReshipped
	// counts the ones that crossed the wire in full. A churn run over an
	// N-site web thus shows exactly which fraction of the shard payload
	// moved: after a 1-site edit delivered through the delta path
	// (Ranker.RebuildOn, or Engine.Update) a warm run reads
	// ShardsReshipped == 1, CacheHits == N-1. ShardBytesSaved is the
	// payload bytes the hits avoided: the exact encoded size of what
	// stayed home.
	CacheHits       int
	ShardsReshipped int
	ShardBytesSaved uint64
	// LocalRanksReused counts the sites whose local DocRank came from
	// Warm.Locals instead of a worker: NumSites on a fully warm run, and
	// NumSites-1 on the first run after a 1-site edit.
	LocalRanksReused int
	// DigestBytesHashed counts the bytes this run fed through SHA-256
	// computing shard content digests: only for what Warm.Digests did not
	// cover, so a run handed the previous run's Result.Digests over the
	// same graph hashes zero bytes, and one handed them with an edited
	// site dropped hashes that site's shard.
	DigestBytesHashed uint64
}

// Warm is what the caller already knows about a run, handed in so the
// run does not recompute it. The zero value is a cold run — the same
// path with nothing known. Every field is read-only to the run and
// sound only for the graph it was learned on; the caller decides when a
// graph edit invalidates an entry.
type Warm struct {
	// Locals[s], when it has one entry per document of site s, is that
	// site's local DocRank (nil = not known): the fleet is asked only for
	// the other sites, and not at all when there are none. It is sound
	// only at the Damping/Tol/MaxIter it was solved under.
	Locals []matrix.Vector
	// Digests is the graph's wire form as an earlier run returned it on
	// Result.Digests (nil = not known): the run hashes only the shards it
	// does not cover. It does not depend on the query's parameters.
	Digests *Digests
}

// Digests is what a run learns about a graph's wire form: each site's
// shard digest and wire size. The shard payloads are not kept — a worker
// reporting a shard missing gets it re-extracted. A Digests is
// immutable.
type Digests struct {
	shards []shardDigest // per site; size 0 = not known
}

// shardDigest names one site's shard: its content digest and its exact
// encoded size.
type shardDigest struct {
	digest wire.Digest
	size   uint64
}

// Drop returns what d still holds after an edit that changed the
// documents or links of the listed sites only: their shards are
// forgotten. Everything else carries, because a shard is its site's
// subgraph and nothing else. Sites appended since are not covered.
func (d *Digests) Drop(changed []graph.SiteID) *Digests {
	if d == nil {
		return nil
	}
	next := &Digests{shards: slices.Clone(d.shards)}
	for _, s := range changed {
		if int(s) < len(next.shards) {
			next.shards[s] = shardDigest{}
		}
	}
	return next
}

// Result is the outcome of a distributed ranking run: the document
// layer, not an answer — lmm.ComposeDocRank(dg, πS, LocalRanks), under a
// πS the caller solves, is the global DocRank. Every vector is freshly
// allocated and the caller's own — except the entries of LocalRanks that
// Warm.Locals supplied, which are those vectors themselves.
type Result struct {
	// LocalRanks holds each site's local DocRank in local-index order,
	// exactly as the workers returned them (WebResult.LocalRanks'
	// distributed twin) or as Warm.Locals supplied them.
	LocalRanks []matrix.Vector
	// LocalIterations records each site's local power-method work as
	// reported by its worker, matching WebResult.LocalIterations for
	// the complexity experiments (E6); 0 for a site Warm.Locals answered.
	LocalIterations []int
	// Digests is the graph's wire form for the next run's Warm.Digests:
	// Warm.Digests itself when it covered this run, else a completed
	// copy.
	Digests *Digests
	// Stats holds timing and transport cost of this run.
	Stats Stats
}

// errLost marks transport-level call failures: the peer is dead,
// partitioned, or its stream is desynchronized, and the connection is
// poisoned either way. Loss errors are the retriable class RetryPolicy
// recovers from; worker-side Response.Err failures are not — the peer
// is alive and refusing, which means a bug, not a death.
var errLost = errors.New("worker lost")

// remote is one connected worker. Its frame stream is strictly
// request/response, so a mutex serializes users of the connection.
type remote struct {
	mu     sync.Mutex
	conn   *wire.Conn
	addr   string
	broken bool

	// redialing marks a running redial loop (guarded by the
	// Coordinator's mu); rejoined marks a reconnect the next run has not
	// counted yet (guarded by its runMu).
	redialing bool
	rejoined  bool
}

// call performs one exchange on the remote's connection, decoding the
// answer into resp (whose slices it reuses — see wire.Frame.Decode for
// who may then retain what), bounded by the earlier of ctx's deadline
// and timeout (<= 0 means no per-call bound).
// A context cancelled mid-exchange interrupts the blocked socket I/O
// immediately (the connection deadline is yanked to the past) and the
// context's error is returned. Any transport failure — a timeout, a
// cancellation, a dead peer — leaves the request/response stream
// desynchronized (a late response could pair with the next request), so
// it marks the remote broken and closes the connection; later calls fail
// fast rather than silently consuming stale payloads. Transport failures
// other than cancellation wrap errLost; cancellation returns ctx.Err()
// so callers never mistake the caller's own abort for a worker death.
func (r *remote) call(ctx context.Context, req *wire.Request, resp *wire.Response, counters *wire.Counters, timeout time.Duration) error {
	if err := ctx.Err(); err != nil {
		// Cancelled before any bytes moved: the stream is still in sync
		// and the connection stays usable.
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.broken {
		return fmt.Errorf("coordinator: %s: connection broken by an earlier failure: %w", r.addr, errLost)
	}
	var deadline time.Time
	ctxBound := false
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || !d.After(deadline)) {
		deadline = d
		ctxBound = true
	}
	if !deadline.IsZero() {
		r.conn.SetDeadline(deadline)
		defer r.conn.SetDeadline(time.Time{})
	}
	if ctx.Done() != nil {
		// dlMu serializes the cancellation callback against the cleanup
		// below: AfterFunc's stop() does not wait for a callback already
		// running, so without it a cancel racing the end of a successful
		// exchange could land its past deadline after the reset and
		// leave a healthy connection permanently timed out.
		var dlMu sync.Mutex
		stopped := false
		stop := context.AfterFunc(ctx, func() {
			dlMu.Lock()
			defer dlMu.Unlock()
			if !stopped {
				// Unblock the in-flight read/write right away instead
				// of waiting out the deadline.
				r.conn.SetDeadline(time.Unix(1, 0))
			}
		})
		defer func() {
			dlMu.Lock()
			stopped = true
			dlMu.Unlock()
			stop()
			r.conn.SetDeadline(time.Time{})
		}()
	}
	fail := func(op string, err error) error {
		r.markBroken()
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		// The socket deadline and the context deadline are the same
		// instant when the context supplied the bound, but the net
		// poller can observe it a hair before the context's timer
		// fires — classify that I/O timeout as the context expiry it
		// is, not as a worker loss.
		var nerr net.Error
		if ctxBound && errors.As(err, &nerr) && nerr.Timeout() {
			return context.DeadlineExceeded
		}
		return fmt.Errorf("coordinator: %s %s: %w: %w", op, r.addr, err, errLost)
	}
	if err := r.conn.Enc.Encode(req); err != nil {
		return fail("send to", err)
	}
	if err := r.conn.Dec.Decode(resp); err != nil {
		return fail("receive from", err)
	}
	counters.AddMessage()
	if resp.Err != "" {
		// Worker-side errors arrive in a well-formed response, so the
		// stream stays in sync and the connection remains usable.
		return fmt.Errorf("coordinator: %s: %s", r.addr, resp.Err)
	}
	return nil
}

// markBroken poisons the remote; the caller holds r.mu.
func (r *remote) markBroken() {
	r.broken = true
	r.conn.Close()
}

// isBroken reports whether an earlier failure poisoned the connection.
func (r *remote) isBroken() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.broken
}

// reconnect replaces a broken remote's connection with a freshly dialed
// one and clears the poison mark; the old socket (if any) is closed.
// The new frame stream starts in sync — the peer sees a brand-new session.
func (r *remote) reconnect(nc net.Conn, counters *wire.Counters) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.conn != nil {
		r.conn.Close()
	}
	r.conn = wire.NewConn(nc, counters)
	r.broken = false
}

// Coordinator drives a fleet of workers through ranking runs.
type Coordinator struct {
	counters wire.Counters
	workers  []*remote
	// dial opens a worker connection within the timeout DialTimeout was
	// given; a redial loop runs it under redialCtx, which Close cancels.
	dial func(ctx context.Context, network, addr string) (net.Conn, error)

	// The redial loops (RetryPolicy.MaxRedials), at most one per broken
	// remote; Close cancels redialCtx and waits on redialWG. redials
	// counts their dials since a run last reported them.
	redialCtx  context.Context
	stopRedial context.CancelFunc
	redialWG   sync.WaitGroup
	redials    atomic.Int64

	// CallTimeout bounds each request/response exchange (0 selects
	// DefaultCallTimeout, negative disables the bound). Set it before
	// issuing calls; huge shard batches on slow links may need more.
	CallTimeout time.Duration

	// runMu serializes whole runs — the protocol phases (load, rank) of
	// two runs must not interleave — and the redial loops' installs
	// between them.
	runMu sync.Mutex

	mu     sync.Mutex
	closed bool
}

// dialAttempts is how many tries the initial bring-up dial gives each
// worker address, with jittered backoff between them — enough to ride
// out a fleet still binding its listeners, small enough that a dead
// address still fails within the same order of magnitude as one
// attempt (the backoff sleeps total well under a second).
const (
	dialAttempts    = 3
	dialBackoffBase = 100 * time.Millisecond
	dialBackoffMax  = 300 * time.Millisecond
)

// dialWithRetry dials addr through the same jittered-backoff shape the
// redial loop uses: a connection-refused from a worker that is
// 200 ms from finishing its bind should cost a short sleep, not the
// whole cluster bring-up.
func (c *Coordinator) dialWithRetry(addr string, attempts int) (net.Conn, error) {
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			time.Sleep(backoffDelay(dialBackoffBase, dialBackoffMax, a-1))
		}
		conn, err := c.dial(context.Background(), "tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// Dial connects to every worker address (with DefaultDialTimeout per
// address) and returns the connected coordinator. Each address gets a
// few attempts with jittered backoff, so a fleet still starting up does
// not fail a bring-up that would succeed 200 ms later. On any failure
// all established connections are closed and an error naming the bad
// address is returned.
func Dial(addrs []string) (*Coordinator, error) {
	return DialTimeout(addrs, DefaultDialTimeout)
}

// DialTimeout is Dial with an explicit per-address timeout (per
// attempt, not per address).
func DialTimeout(addrs []string, timeout time.Duration) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, errors.New("coordinator: no worker addresses")
	}
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	c := &Coordinator{dial: (&net.Dialer{Timeout: timeout}).DialContext}
	c.redialCtx, c.stopRedial = context.WithCancel(context.Background())
	for _, addr := range addrs {
		conn, err := c.dialWithRetry(addr, dialAttempts)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("coordinator: dial worker %s: %w", addr, err)
		}
		c.workers = append(c.workers, &remote{
			conn: wire.NewConn(conn, &c.counters),
			addr: addr,
		})
	}
	return c, nil
}

// NumWorkers returns the fleet size.
func (c *Coordinator) NumWorkers() int { return len(c.workers) }

// Ping round-trips a liveness probe to every worker concurrently
// (including ones whose connections earlier failures poisoned — those
// report errors, which is how callers learn the fleet shrank). It
// serializes with runs so probe traffic never lands inside a run's
// per-run Stats deltas.
func (c *Coordinator) Ping() error {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	if c.isClosed() {
		return errors.New("coordinator: closed")
	}
	return c.broadcastErr(func(_ int, r *remote) error {
		return r.call(context.Background(), &wire.Request{Kind: wire.KindPing}, new(wire.Response), &c.counters, c.callTimeout())
	})
}

func (c *Coordinator) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Close hangs up every worker connection (the workers keep serving —
// closing a coordinator does not stop the fleet) and ends the redial
// loops, waiting for them. Idempotent.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.stopRedial()
	var first error
	for _, r := range c.workers {
		if err := r.conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.redialWG.Wait()
	return first
}

// redial starts the redial loop of worker idx, which the calling run
// found broken or lost, unless one is running, the policy asks for none
// or the coordinator is closed: jittered exponential backoff between at
// most MaxRedials dials, and the first connection made is installed
// between runs (rejoin).
func (c *Coordinator) redial(idx int, pol RetryPolicy) {
	w := c.workers[idx]
	c.mu.Lock()
	defer c.mu.Unlock()
	if pol.MaxRedials <= 0 || c.closed || w.redialing {
		return
	}
	w.redialing = true
	c.redialWG.Add(1)
	go func() {
		defer c.redialWG.Done()
		defer func() {
			c.mu.Lock()
			w.redialing = false
			c.mu.Unlock()
		}()
		for attempt := 0; attempt < pol.MaxRedials; attempt++ {
			select {
			case <-time.After(backoffDelay(pol.redialBase(), pol.redialMax(), attempt)):
			case <-c.redialCtx.Done():
				return
			}
			c.redials.Add(1)
			if nc, err := c.dial(c.redialCtx, "tcp", w.addr); err == nil && c.rejoin(w, nc) {
				return
			}
		}
	}()
}

// rejoin installs a redialed connection on w between runs and probes it
// with a Ping; the next run counts w as rejoined. It reports whether the
// loop is done: the probe answered, or the coordinator closed. A probe
// that fails leaves w broken for the loop's next dial.
func (c *Coordinator) rejoin(w *remote, nc net.Conn) bool {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	// Installed under mu, so Close, which marks the coordinator closed
	// under it, hangs up whatever connection w holds.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		nc.Close()
		return true
	}
	w.reconnect(nc, &c.counters)
	c.mu.Unlock()
	if w.call(c.redialCtx, &wire.Request{Kind: wire.KindPing}, new(wire.Response), &c.counters, c.callTimeout()) != nil {
		return false
	}
	w.rejoined = true
	return true
}

// Stats returns a snapshot of this coordinator's transport counters
// (cumulative across runs; a Result reports per-run deltas).
func (c *Coordinator) Stats() (messages, bytesSent, bytesReceived uint64) {
	return c.counters.Messages(), c.counters.BytesSent(), c.counters.BytesReceived()
}

func (c *Coordinator) callTimeout() time.Duration {
	if c.CallTimeout == 0 {
		return DefaultCallTimeout
	}
	return c.CallTimeout
}

// broadcastErr runs fn against every worker concurrently, passing each
// worker's fleet index, and joins the errors in worker order.
func (c *Coordinator) broadcastErr(fn func(idx int, r *remote) error) error {
	errs := make([]error, len(c.workers))
	var wg sync.WaitGroup
	for i, r := range c.workers {
		wg.Add(1)
		go func(i int, r *remote) {
			defer wg.Done()
			errs[i] = fn(i, r)
		}(i, r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// RankPreparedCtx executes the document layer of the distributed Layered
// Method over the graph of a precomputed lmm.Ranker, starting from what
// the caller already knows — Warm{} when that is nothing: partition sites
// over the fleet, ship shards and rank locally on the peers; the Result's
// local DocRanks compose with the caller's πS into the global DocRank by
// the Partition Theorem (lmm.ComposeDocRank). Repeated runs over the
// same graph only pay for shipping and ranking; since workers cache
// shards by content digest, a repeated run ships (almost) no shard bytes,
// and one handed the previous run's Result.Digests hashes none either.
// The Ranker must not be used concurrently by another goroutine while a
// run is in flight.
//
// The context's deadline propagates into every wire exchange (bounded
// further by CallTimeout) and a cancellation aborts the run mid-phase —
// between shipment waves, or by interrupting a blocked socket read —
// returning ctx.Err(). A cancelled run poisons the connections it
// interrupted (their streams are desynchronized); Ping reports which
// survived.
func (c *Coordinator) RankPreparedCtx(ctx context.Context, rk *lmm.Ranker, cfg Config, warm Warm) (*Result, error) {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	res, err := c.rankPrepared(ctx, rk, cfg, warm)
	return res, normalizeCtxErr(ctx, err)
}

// normalizeCtxErr maps any failure of a cancelled run to the context's
// own error, so callers observe exactly ctx.Err() no matter which phase
// (a wire exchange, a loop head) noticed the
// cancellation first.
func normalizeCtxErr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}
