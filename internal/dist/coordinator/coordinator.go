// Package coordinator implements the central side of the distributed
// Layered Method (§3.2 run across a fleet): it partitions a DocGraph by
// site over TCP workers speaking wire's frames, dispatches the per-site
// local DocRanks to the peers, computes the SiteRank either centrally or
// by distributed power iteration, and composes the global DocRank by the
// Partition Theorem.
//
// The runtime is production-shaped along three axes. Fault tolerance:
// with a RetryPolicy budget, a peer dying mid-run is detected at the
// failing exchange, its site shards are reassigned to the lightest
// surviving workers and only the affected work is re-run. Placement:
// the site→worker assignment is a pluggable partition.Strategy —
// weighted LPT by default so one giant site cannot serialize the fleet,
// or coupling-aware aggregation that co-locates strongly linked sites —
// and every run reports its cut-edge quality in Stats. Wire cost:
// shards are content-addressed and a worker's session is declared by
// digest — one KindLoad names what it must hold, and only what the
// worker reports missing is shipped (repeated runs over an unchanged
// graph ship near-zero shard bytes) — and Config.BatchRounds trades one
// replicated site-chain shipment for K× fewer SiteRank exchanges. All
// of it is accounted in per-run Stats.
package coordinator

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"lmmrank/internal/dist/wire"
	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
	"lmmrank/internal/partition"
)

// DefaultDialTimeout bounds Dial per worker so a dead address fails
// fast instead of hanging a cluster bring-up.
const DefaultDialTimeout = 3 * time.Second

// DefaultCallTimeout bounds each request/response exchange so a stalled
// (but not closed) peer — a partitioned host, a stopped process —
// surfaces as an error instead of wedging Rank forever. Generous,
// because one exchange may cover a worker's whole local-rank batch.
const DefaultCallTimeout = 2 * time.Minute

// RetryPolicy bounds how much mid-run fault tolerance a distributed
// run buys. The zero value preserves strict behavior: the first worker
// loss fails the run.
type RetryPolicy struct {
	// MaxWorkerFailures is how many worker losses one run may absorb.
	// Each loss marks the peer dead for the rest of the run, reassigns
	// its site shards to the surviving workers (lightest-loaded first)
	// and re-runs only the affected work: the undelivered shards, the
	// lost sites' local DocRanks, or the in-flight SiteRank round.
	// Worker-side errors (a live peer answering with Response.Err) are
	// never retried — they mean a protocol or input bug, not a death.
	MaxWorkerFailures int

	// MaxRedials enables worker re-admission: a peer lost mid-run (or
	// already broken when the run starts) is redialed in the background
	// up to this many times with jittered exponential backoff, and on
	// success is re-admitted into the run at the next safe point — its
	// original sites rebalance back to it, declared by digest against its
	// surviving cache (a warm rejoiner re-ships ~0 shard bytes). 0 keeps
	// the pre-redial behavior: a lost worker stays lost for the run.
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

// SiteRankMode selects the site-layer algorithm of a distributed run.
type SiteRankMode int

const (
	// SiteRankCentral (the zero value) solves the site layer in-process
	// on the coordinator; the fleet still computes the local DocRanks.
	SiteRankCentral SiteRankMode = iota
	// SiteRankSync is the barrier-synchronous distributed power
	// iteration: every round reduces one partial from every live worker.
	SiteRankSync
	// SiteRankBatched exchanges up to BatchRounds power rounds per
	// message against a chain replicated on every worker.
	SiteRankBatched
	// SiteRankAsync is the barrier-free randomized mode: per-worker
	// sweeps merge into a versioned accumulator as they arrive, so a
	// straggler degrades convergence instead of stalling the fleet. A
	// candidate convergence detected from a decaying residual estimate
	// is always confirmed by synchronous verification rounds, so the
	// result meets Tol exactly like the synchronous modes.
	SiteRankAsync
)

// String names the mode for logs and flag round-trips.
func (m SiteRankMode) String() string {
	switch m {
	case SiteRankCentral:
		return "central"
	case SiteRankSync:
		return "sync"
	case SiteRankBatched:
		return "batched"
	case SiteRankAsync:
		return "async"
	default:
		return fmt.Sprintf("SiteRankMode(%d)", int(m))
	}
}

// Config parameterizes one distributed ranking run.
type Config struct {
	// Damping is the PageRank damping factor / gatekeeper α. Zero is a
	// sentinel selecting pagerank.DefaultDamping (0.85); an explicit
	// damping of exactly 0 cannot be requested, while tiny positive
	// values are honored as given.
	Damping float64
	// Tol and MaxIter bound every power run, local and site-level
	// (0 = package matrix defaults). SiteRankAsync spends MaxIter on
	// fleet passes — stretches of merges in which every live worker's
	// sweep landed — so the bound follows the slowest worker, as a
	// synchronous round does, not the rate the others exchange at.
	Tol     float64
	MaxIter int
	// SiteGraph controls SiteLink aggregation (§3.1).
	SiteGraph graph.SiteGraphOptions
	// SitePersonalization optionally biases the site layer: the teleport
	// distribution v of Mˆ(G_S) (length NumSites; nil = uniform) — the
	// paper's "personalization at the higher layer" served from the
	// fleet. It applies in every SiteRank mode: the central solver takes
	// it directly, the unbatched distributed reduce applies it in the
	// coordinator's rank-one correction, and round batching ships it to
	// the workers alongside the iterate.
	SitePersonalization matrix.Vector
	// ThreeLayer selects the three-layer (domain → site → page) model:
	// the fleet computes local DocRanks exactly as in the two-layer run,
	// while the coordinator composes them under per-site weights
	// DomainRank·SiteEntry computed centrally from the Ranker's
	// SiteGraph (the upper layers are small — the paper's point).
	// Incompatible with SitePersonalization and with every SiteRank mode
	// but SiteRankCentral.
	ThreeLayer bool
	// DomainOf groups sites into domains for ThreeLayer (nil =
	// lmm.DefaultDomainOf).
	DomainOf func(siteName string) string
	// Compress flate-compresses shard payloads on the wire (the workers
	// decompress transparently). Edge lists are integer-heavy and
	// repetitive, so compression cuts cold-load bytes severalfold for
	// CPU that is negligible next to the ranking itself; warm runs ship
	// no shards either way. Stats records raw vs compressed bytes.
	Compress bool
	// BatchRounds asks SiteRankBatched to run up to this many power
	// rounds per wire exchange (values <= 1 mean one; other modes ignore
	// it). Batching replicates the full normalized site chain onto every
	// worker at load time — cheap, because the site layer is small (the
	// paper's point) and the chain is digest-cached like any shard — and
	// then each exchange covers K rounds on one worker, cutting SiteRank
	// messages by ~K·NumWorkers while agreeing with the unbatched path
	// to < 1e-9 (summation-order rounding only). A worker lost mid-batch
	// fails over to the next live worker without any reassignment, since
	// every peer holds the chain.
	BatchRounds int
	// SiteRank selects the site-layer algorithm — the one spelling of
	// the mode. The zero value is SiteRankCentral.
	SiteRank SiteRankMode
	// AsyncOrdered makes the asynchronous mode deterministic: instead of
	// one concurrent sweep driver per worker, the coordinator draws one
	// worker at a time from a seeded schedule and merges its sweep before
	// drawing the next (Ishii–Tempo's sequential randomized update). The
	// SiteRank it produces is bitwise reproducible for a fixed AsyncSeed
	// and fleet; the concurrent default is faster but its merge order is
	// scheduler-dependent (still within Tol of the synchronous result).
	AsyncOrdered bool
	// AsyncSeed seeds the ordered asynchronous schedule (and nothing
	// else); ignored unless AsyncOrdered is set.
	AsyncSeed int64
	// Retry controls mid-run fault tolerance; the zero value disables
	// recovery.
	Retry RetryPolicy
	// Checkpoint, when non-nil, persists the distributed SiteRank power
	// iteration through the Checkpoint interface every CheckpointEvery
	// rounds (plus once at convergence-independent points), so a
	// coordinator killed mid-iteration resumes from the last saved
	// round instead of recomputing: at run start a snapshot whose
	// digest matches this computation seeds the iterate and round
	// counter. On success the checkpoint is cleared. Ignored by
	// SiteRankCentral (the central solver is a single in-process call
	// with nothing durable to resume).
	Checkpoint Checkpoint
	// CheckpointEvery is the save cadence in rounds (0 = every round).
	CheckpointEvery int
	// MaxInFlight, RejectOverload and Coalesce are serving knobs
	// consumed by the root package's DistEngine, not by the
	// coordinator itself (which already serializes runs on the wire):
	// MaxInFlight caps concurrently admitted queries (0 = no cap),
	// RejectOverload makes over-cap queries fail fast instead of
	// queueing, and Coalesce merges concurrent identical queries into
	// one wire run.
	MaxInFlight    int
	RejectOverload bool
	Coalesce       bool
	// TenantQuota and CoalesceTol refine those knobs (again consumed by
	// the root DistEngine only): TenantQuota caps each Query.Tenant's
	// concurrently admitted queries beneath the engine-wide cap, and
	// CoalesceTol > 0 lets Coalesce merge queries whose personalization
	// vectors differ by less than the tolerance in L1, not just
	// bit-identical ones.
	TenantQuota int
	CoalesceTol float64
	// Partition selects the site→shard placement strategy (nil =
	// partition.Balanced, the weighted-LPT default). The strategy only
	// decides which worker serves which sites — the Partition Theorem
	// guarantees the composed DocRank is identical for every choice —
	// so it trades load balance against cut-edge volume (see
	// Stats.CutFraction).
	Partition partition.Strategy
	// Assignment, when non-nil, pins the site→shard placement instead
	// of consulting Partition: Assignment[s] is the abstract shard of
	// site s, and shard j maps onto the j-th live worker in ascending
	// fleet order. The root DistEngine pins the assignment it computed
	// at build time so every query and rejoin rebalance agrees with the
	// snapshot's placement. A pin that no longer fits (wrong length, or
	// an owner outside the live fleet after a permanent loss) falls back
	// to the strategy.
	Assignment []int
	// RepartitionThreshold is consumed by the root DistEngine's Update
	// path, not the coordinator: when an applied delta drifts the
	// cut-edge fraction more than this above the last repartition's
	// baseline, the engine re-runs the strategy and migrates shards
	// through the workers' digest caches. Zero or negative disables
	// online repartitioning.
	RepartitionThreshold float64
}

func (c Config) damping() float64 {
	if c.Damping == 0 {
		return pagerank.DefaultDamping
	}
	return c.Damping
}

func (c Config) tol() float64 {
	if c.Tol == 0 {
		return matrix.DefaultTol
	}
	return c.Tol
}

func (c Config) maxIter() int {
	if c.MaxIter == 0 {
		return matrix.DefaultMaxIter
	}
	return c.MaxIter
}

func (c Config) batchRounds() int {
	if c.BatchRounds < 1 {
		return 1
	}
	return c.BatchRounds
}

func (c Config) checkpointEvery() int {
	if c.CheckpointEvery < 1 {
		return 1
	}
	return c.CheckpointEvery
}

// rowSharded reports whether the mode consumes site-chain rows riding
// inside the site shards (round batching ships the whole chain
// separately instead; central mode ships no site-layer data at all).
func (m SiteRankMode) rowSharded() bool {
	return m == SiteRankSync || m == SiteRankAsync
}

// Stats breaks down the cost of a distributed run.
type Stats struct {
	// LoadDuration covers partitioning and shipping the site shards.
	LoadDuration time.Duration
	// LocalRankDuration covers the fleet-wide local DocRank phase; it is
	// 0 when Warm.Locals answered every site and the fleet was not asked.
	LocalRankDuration time.Duration
	// SiteRankDuration covers the site-layer computation.
	SiteRankDuration time.Duration
	// SiteRankRounds counts power iterations of the site layer
	// (the central solver's, or the fleet's rounds in the other modes).
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
	// redone power round, a failed-over batch exchange).
	WorkersLost   int
	Reassignments int
	Retries       int
	// WorkersRejoined counts peers re-admitted mid-run by the redial
	// loop (RetryPolicy.MaxRedials); RedialAttempts counts every dial
	// the loop made, successful or not; RejoinShardBytes is the encoded
	// size of the shards shipped in full while rebalancing sites back
	// to rejoiners — ~0 when a rejoiner's digest cache is warm, which
	// is the whole point of re-admission over replacement.
	WorkersRejoined  int
	RedialAttempts   int
	RejoinShardBytes uint64
	// ResumedFromRound is the checkpointed round this run's SiteRank
	// continued from (0 = started fresh); SiteRankRounds then counts
	// only the rounds this run executed, so resumed + executed equals
	// the uninterrupted total.
	ResumedFromRound int
	// CacheHits counts shards (and site chains) the workers already
	// held by digest and did not need shipped; CacheMisses counts the
	// ones shipped in full. ShardBytesSaved is the payload bytes the hits
	// avoided: the exact encoded size of what stayed home.
	CacheHits       int
	CacheMisses     int
	ShardBytesSaved uint64
	// ShardsReused counts site shards the run activated from worker
	// caches by digest instead of shipping; ShardsReshipped counts the
	// ones that crossed the wire in full. Unlike CacheHits/CacheMisses
	// they exclude the site chain, so a churn run over an N-site web
	// shows exactly which fraction of the shard payload moved: after a
	// 1-site edit delivered through the delta path (Rebuild +
	// RefreshPrepared, or Engine.Update) a warm run reads
	// ShardsReshipped == 1, ShardsReused == N-1.
	ShardsReused    int
	ShardsReshipped int
	// LocalRanksReused counts the sites whose local DocRank came from
	// Warm.Locals instead of a worker: NumSites on a fully warm run, and
	// NumSites-1 on the first run after a 1-site edit.
	LocalRanksReused int
	// DigestBytesHashed counts the bytes this run fed through SHA-256
	// computing shard and chain content digests. The coordinator
	// memoizes digests per Ranker, so a warm RankPrepared run hashes
	// zero bytes.
	DigestBytesHashed uint64
	// ShardBytesRaw and ShardBytesCompressed record the shard payloads
	// shipped with Config.Compress on: the encoded size before compression
	// and the flate size that actually crossed the wire. Both stay zero
	// when compression is off or nothing shipped in full.
	ShardBytesRaw        uint64
	ShardBytesCompressed uint64
	// BatchMessagesSaved estimates the SiteRank exchanges avoided by
	// round batching: rounds × live workers (the unbatched protocol's
	// cost) minus the batch exchanges actually made.
	BatchMessagesSaved int
	// AsyncUpdatesMerged counts the barrier-free sweeps SiteRankAsync
	// folded into its accumulator (SiteRankRounds counts the same thing
	// for the async mode, plus the verification rounds).
	AsyncUpdatesMerged int
	// AsyncWorkerSweeps breaks AsyncUpdatesMerged down per fleet index —
	// the straggler-tolerance signature: a delayed worker merges fewer
	// sweeps instead of slowing everyone else's.
	AsyncWorkerSweeps []int
	// AsyncStalenessHist histograms each merged sweep's staleness — how
	// many merges landed between the sweep's snapshot and its own merge.
	// Bucket i counts staleness exactly i; the last bucket absorbs the
	// tail. The ordered schedule merges every sweep at staleness 0.
	AsyncStalenessHist []int
	// AsyncVerifyRounds counts the synchronous barrier rounds run to
	// confirm a candidate convergence of the asynchronous phase — the
	// rounds that make the residual estimate's optimism harmless.
	AsyncVerifyRounds int
	// CutEdges is the SiteGraph link weight (document-link multiplicity,
	// aggregated per site pair under Config.SiteGraph) between sites
	// placed on different workers this run — the coupling the
	// distributed computation carries between peers. CutFraction is the
	// same weight as a fraction of the SiteGraph's total; it is the
	// partition-quality number the Aggregate strategy minimizes.
	CutEdges    float64
	CutFraction float64
	// CrossShardBytes estimates the per-sweep payload a document-level
	// edge exchange would ship across shard boundaries under this
	// placement (CutEdges × the coarse cost of one wire edge). The LMM
	// protocol never ships document edges — that is the paper's point —
	// so this is the counterfactual volume the partition avoids, not a
	// measured transfer.
	CrossShardBytes uint64
}

// Warm is what the caller already knows about a run's answer, handed in
// so the run does not recompute it. The zero value is a cold run — the
// same path with nothing known. Both fields are read-only to the run,
// and sound only for a run at the Damping/Tol/MaxIter the vectors were
// solved under; the caller decides that, as it decides when a graph
// edit invalidates an entry.
type Warm struct {
	// SiteStart seeds the two-layer SiteRank iteration in every mode in
	// place of the uniform vector — a hint: ignored unless it has one
	// entry per site, overridden by a matching checkpoint, and never read
	// by a ThreeLayer run (whose upper layers rank domains, not sites).
	SiteStart matrix.Vector
	// Locals[s], when it has one entry per document of site s, is that
	// site's local DocRank (nil = not known): the fleet is asked only for
	// the other sites, and not at all when there are none.
	Locals []matrix.Vector
}

// Result is the outcome of a distributed ranking run. Every vector is
// freshly allocated and the caller's own — except the entries of
// LocalRanks that Warm.Locals supplied, which are those vectors
// themselves.
type Result struct {
	// DocRank is the composed global ranking per DocID.
	DocRank matrix.Vector
	// SiteRank is πS per SiteID. For a ThreeLayer run it holds the
	// per-site composition weights DomainRank·SiteEntry instead.
	SiteRank matrix.Vector
	// Domains, DomainRank, DomainOfSite and SiteEntry carry the upper
	// layers of a ThreeLayer run (nil otherwise), mirroring
	// lmm.Web3Result.
	Domains      []string
	DomainRank   matrix.Vector
	DomainOfSite []int
	SiteEntry    matrix.Vector
	// LocalRanks holds each site's local DocRank in local-index order,
	// exactly as the workers returned them (WebResult.LocalRanks'
	// distributed twin) or as Warm.Locals supplied them.
	LocalRanks []matrix.Vector
	// LocalIterations records each site's local power-method work as
	// reported by its worker, matching WebResult.LocalIterations for
	// the complexity experiments (E6); 0 for a site Warm.Locals answered.
	LocalIterations []int
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
	// round is the Response the per-round SiteRank exchanges decode into
	// (run.exchange), so a round allocates nothing; its contents last
	// until this worker's next exchange.
	round wire.Response
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

	// CallTimeout bounds each request/response exchange (0 selects
	// DefaultCallTimeout, negative disables the bound). Set it before
	// issuing calls; huge shard batches on slow links may need more.
	CallTimeout time.Duration

	// runMu serializes whole Rank runs: the protocol phases (load, rank,
	// power rounds) of two runs must not interleave.
	runMu sync.Mutex

	// asyncEpoch is the asynchronous accumulator generation an async
	// phase is in (it bumps at phase start and on every membership
	// change). Generations are numbered per Coordinator, not per run: a
	// worker refuses sweeps for an epoch older than the one its
	// connection has reached, and nothing rewinds a connection, so a run
	// must start above where the last one on it stopped. Guarded by
	// runMu.
	asyncEpoch uint64

	// prepMemo memoizes the wire payloads (shards, digests, sizes,
	// chain) of recently prepared Rankers, so repeated RankPrepared runs
	// skip rebuilding edge lists and re-hashing SHA-256 digests
	// entirely — including a coordinator alternating between several
	// prepared graphs (one entry per (Ranker, protocol shape), LRU at
	// the front, bounded by prepMemoCap). Guarded by runMu. A Ranker
	// captures its graph by reference and a mutated graph requires a new
	// (or Rebuild-ed) Ranker, so identity of the Ranker pointer — plus
	// the protocol shape, which decides whether chain rows ride in the
	// shards — is a sound memo key; RefreshPrepared migrates entries
	// across a Rebuild so only dirty shards re-hash.
	prepMemo []*preparedShards

	mu     sync.Mutex
	closed bool
}

// prepMemoCap bounds the digest memo: enough for a coordinator
// alternating a handful of prepared graphs (each in at most one protocol
// shape at a time in practice), small enough that pinned payloads stay
// negligible next to the worker-side caches.
const prepMemoCap = 4

// preparedShards is one (Ranker, protocol shape) entry of the memo.
// After RefreshPrepared migrates an entry across an incremental Rebuild,
// built marks which sites' payloads are valid: unchanged sites carry
// over, dirty slots are rebuilt (and re-hashed) by the next run's
// buildShards.
type preparedShards struct {
	rk        *lmm.Ranker
	wantRows  bool
	withChain bool

	shards []wire.SiteShard
	refs   []wire.ShardRef
	// wireSizes memoizes each shard's WireSize — a walk of its edge
	// list — so a warm run's bytes-saved accounting costs O(sites).
	wireSizes []uint64
	built     []bool
	chain     *wire.SiteChain
	chainRef  wire.Digest
}

func newPreparedShards(rk *lmm.Ranker, wantRows, withChain bool, ns int) *preparedShards {
	return &preparedShards{
		rk: rk, wantRows: wantRows, withChain: withChain,
		shards:    make([]wire.SiteShard, ns),
		refs:      make([]wire.ShardRef, ns),
		wireSizes: make([]uint64, ns),
		built:     make([]bool, ns),
	}
}

// complete reports whether every site payload (and the chain, when the
// shape ships one) is valid.
func (p *preparedShards) complete() bool {
	for _, b := range p.built {
		if !b {
			return false
		}
	}
	return !p.withChain || p.chain != nil
}

// lookupPrep returns the memo entry for the key, moving it to the LRU
// front. Caller holds runMu.
func (c *Coordinator) lookupPrep(rk *lmm.Ranker, wantRows, withChain bool) *preparedShards {
	for i, p := range c.prepMemo {
		if p.rk == rk && p.wantRows == wantRows && p.withChain == withChain {
			copy(c.prepMemo[1:i+1], c.prepMemo[:i])
			c.prepMemo[0] = p
			return p
		}
	}
	return nil
}

// storePrep inserts (or refreshes) a memo entry at the LRU front,
// evicting the least recently used entry past prepMemoCap. Caller holds
// runMu.
func (c *Coordinator) storePrep(p *preparedShards) {
	if c.lookupPrep(p.rk, p.wantRows, p.withChain) != nil {
		c.prepMemo[0] = p
		return
	}
	c.prepMemo = append(c.prepMemo, nil)
	copy(c.prepMemo[1:], c.prepMemo)
	c.prepMemo[0] = p
	if len(c.prepMemo) > prepMemoCap {
		c.prepMemo = c.prepMemo[:prepMemoCap]
	}
}

// RefreshPrepared migrates the digest memo across an incremental Ranker
// rebuild (lmm.Ranker.Rebuild): every memo entry held for prev whose
// shards do not embed site-chain rows is re-keyed to next with the
// unchanged sites' payloads and digests carried over, so the next
// RankPrepared run re-hashes only the changed shards — the
// coordinator-side half of delta shipping (the worker-side half is the
// digest cache, which holds every unchanged shard a Load names).
// Entries for prev in the rows-in-shards shape (unbatched distributed
// SiteRank) are dropped instead: their shard contents embed site-graph
// rows, which a mutation elsewhere can change. changed lists the same
// sites passed to Rebuild; sites appended beyond prev's roster are
// implicitly changed. Entries for prev are removed either way — the old
// Ranker is stale by contract.
func (c *Coordinator) RefreshPrepared(prev, next *lmm.Ranker, changed []graph.SiteID) {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	ns := next.NumSites()
	changedSet := make(map[int]bool, len(changed))
	for _, s := range changed {
		changedSet[int(s)] = true
	}
	for s := prev.NumSites(); s < ns; s++ {
		changedSet[s] = true
	}
	kept := c.prepMemo[:0]
	var migrated []*preparedShards
	for _, p := range c.prepMemo {
		if p.rk != prev {
			kept = append(kept, p)
			continue
		}
		if p.wantRows {
			continue // shard contents depend on the (changed) site graph
		}
		// The chain stays nil: the site graph may have changed, and it
		// is small — the next run rebuilds and re-hashes it.
		m := newPreparedShards(next, p.wantRows, p.withChain, ns)
		for s := 0; s < ns && s < len(p.shards); s++ {
			if changedSet[s] || !p.built[s] {
				continue
			}
			m.shards[s] = p.shards[s]
			m.refs[s] = p.refs[s]
			m.wireSizes[s] = p.wireSizes[s]
			m.built[s] = true
		}
		migrated = append(migrated, m)
	}
	c.prepMemo = kept
	for _, m := range migrated {
		c.storePrep(m)
	}
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
// mid-run redial loop uses: a connection-refused from a worker that is
// 200 ms from finishing its bind should cost a short sleep, not the
// whole cluster bring-up.
func dialWithRetry(addr string, timeout time.Duration, attempts int) (net.Conn, error) {
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			time.Sleep(backoffDelay(dialBackoffBase, dialBackoffMax, a-1))
		}
		conn, err := net.DialTimeout("tcp", addr, timeout)
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
	c := &Coordinator{}
	for _, addr := range addrs {
		conn, err := dialWithRetry(addr, timeout, dialAttempts)
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
// serializes with Rank so probe traffic never lands inside a run's
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
// closing a coordinator does not stop the fleet). Idempotent.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	var first error
	for _, r := range c.workers {
		if err := r.conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats returns a snapshot of this coordinator's transport counters
// (cumulative across runs; Rank reports per-run deltas).
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

// Rank executes the distributed Layered Method on dg: partition sites
// over the fleet, ship shards, rank locally on the peers, compute the
// SiteRank, and compose the global DocRank per the Partition Theorem.
// It is RankCtx with a background context.
//
// It builds a throwaway lmm.Ranker for the run; callers ranking the same
// graph repeatedly should precompute one and call RankPrepared, which
// skips the SiteGraph derivation and subgraph extraction entirely (and,
// paired with the workers' digest caches and the coordinator's digest
// memo, skips re-shipping and re-hashing shards too).
func (c *Coordinator) Rank(dg *graph.DocGraph, cfg Config) (*Result, error) {
	return c.RankCtx(context.Background(), dg, cfg)
}

// RankCtx is Rank under a context: the context's deadline propagates
// into every wire exchange (bounded further by CallTimeout) and a
// cancellation aborts the run mid-phase — between power rounds, between
// shipment waves, or by interrupting a blocked socket read — returning
// ctx.Err(). A cancelled run poisons the connections it interrupted
// (their streams are desynchronized); Ping reports which survived.
func (c *Coordinator) RankCtx(ctx context.Context, dg *graph.DocGraph, cfg Config) (*Result, error) {
	// Build the Ranker under runMu: NewRanker dedupes the shared graph
	// (a mutation), and concurrent Rank calls are allowed as long as
	// runMu serializes them.
	c.runMu.Lock()
	defer c.runMu.Unlock()
	rk, err := lmm.NewRanker(dg, lmm.RankerOptions{SiteGraph: cfg.SiteGraph})
	if err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	res, err := c.rankPrepared(ctx, rk, cfg, Warm{}, false)
	return res, normalizeCtxErr(ctx, err)
}

// RankPrepared is Rank over a precomputed lmm.Ranker: the SiteGraph and
// all local subgraphs come from the Ranker's one-time precomputation, so
// repeated runs over the same graph only pay for shipping and ranking —
// and since workers cache shards by content digest (and the coordinator
// memoizes the digests per Ranker), a repeated run over an unchanged
// graph ships (almost) no shard bytes and hashes none at all.
// cfg.SiteGraph is ignored — that choice was fixed when the Ranker was
// built. The Ranker must not be used concurrently by another goroutine
// while a run is in flight.
func (c *Coordinator) RankPrepared(rk *lmm.Ranker, cfg Config) (*Result, error) {
	return c.RankPreparedCtx(context.Background(), rk, cfg, Warm{})
}

// RankPreparedCtx is RankPrepared under a context (see RankCtx for the
// cancellation semantics), starting from what the caller already knows
// of the answer — Warm{} when that is nothing.
func (c *Coordinator) RankPreparedCtx(ctx context.Context, rk *lmm.Ranker, cfg Config, warm Warm) (*Result, error) {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	res, err := c.rankPrepared(ctx, rk, cfg, warm, true)
	return res, normalizeCtxErr(ctx, err)
}

// normalizeCtxErr maps any failure of a cancelled run to the context's
// own error, so callers observe exactly ctx.Err() no matter which phase
// (a power iteration, a wire exchange, a loop head) noticed the
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
