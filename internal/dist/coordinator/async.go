package coordinator

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"lmmrank/internal/dist/wire"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
)

// This file implements SiteRankAsync, the barrier-free SiteRank mode.
//
// The wire protocol is strict request/response, so workers cannot push;
// barrier freedom is recovered on the coordinator instead: one driver
// goroutine per worker keeps exactly one KindAsyncUpdate in flight on
// its connection, and drivers on distinct workers run concurrently. A
// worker delayed 10× simply completes 10× fewer sweeps — nothing waits
// for it, which is exactly the straggler property the synchronous
// barrier lacks.
//
// All merging, convergence detection and failure handling happen
// sequentially in the supervisor (the calling goroutine): drivers only
// perform wire calls and deliver results on a channel, then park on a
// per-driver ack until their sweep is merged. The ack is what prevents
// a fast worker from re-sweeping an unchanged snapshot — whose merge
// would produce a residual of zero and fake convergence.
//
// Convergence is detected in two stages. The async phase tracks a
// decaying maximum of per-merge residuals (resEst); once every live
// worker has contributed to the current accumulator generation and
// resEst crossed Tol, the phase is a convergence *candidate* only. The
// drivers are drained, the epoch is acknowledged, and synchronous
// barrier verification rounds — the exact arithmetic of the
// synchronous mode — run until the true residual crosses Tol. The
// final iterate therefore meets Tol regardless of how optimistic the
// asynchronous estimate was, and the verification barrier is also the
// safe point where rejoined workers are re-admitted.

// asyncResDecay shapes the decaying residual estimate: each merge
// relaxes the remembered maximum by this factor before taking the new
// residual into account. Close enough to 1 that one small residual
// from a stale straggler sweep cannot fake convergence on its own;
// far enough below 1 that the estimate tracks the true trend within a
// few sweeps per worker.
const asyncResDecay = 0.9

// asyncStaleBuckets sizes Stats.AsyncStalenessHist; the last bucket
// absorbs every staleness ≥ asyncStaleBuckets−1.
const asyncStaleBuckets = 8

// asyncUpdate is one delivered sweep (or the driver's terminal error).
type asyncUpdate struct {
	idx      int
	partial  []float64
	dangling float64
	mass     float64
	// x is the snapshot the sweep was taken from — a published iterate,
	// never written again, so a stored contribution keeps it by reference.
	// epoch and baseVer identify the accumulator generation and merge
	// version it belongs to.
	x       []float64
	epoch   uint64
	baseVer uint64
	err     error
}

// asyncSnapshot is what drivers sweep against. Every merge allocates a
// fresh iterate and nothing writes one after its merge, so the
// supervisor publishes the accumulator's own and drivers hand x straight
// to the encoder without copying.
type asyncSnapshot struct {
	x              []float64
	version, epoch uint64
}

// asyncAccum is the per-epoch versioned accumulator: the last sweep of
// every worker in the current generation, the merged iterate, and the
// decaying residual estimate. Owned exclusively by the supervisor.
type asyncAccum struct {
	r *run
	f float64
	// x is the merged iterate: a fresh vector every merge, immutable once
	// merged. own is the merge's scratch for the self-loop terms.
	x   matrix.Vector
	own matrix.Vector
	// version counts merges across the whole phase (staleness is
	// measured in versions); last holds each worker's latest sweep of
	// the current epoch (nil = none yet).
	version uint64
	last    []*asyncUpdate
	// partials backs last[i].partial: a delivered sweep's partial aliases
	// its worker's retained Response, which that worker's next sweep
	// overwrites, so merge keeps a copy here (one array per worker,
	// reused).
	partials [][]float64
	// lastRes is each worker's most recent merge residual this epoch. A
	// slow worker's sweeps arrive stale and jolt the iterate; requiring
	// every worker's latest jolt under Tol keeps the candidate honest —
	// fast workers alone can sit arbitrarily still around a wrong point.
	lastRes []float64
	resEst  float64
}

func newAsyncAccum(r *run, x matrix.Vector) *asyncAccum {
	n := len(r.c.workers)
	return &asyncAccum{
		r:        r,
		f:        r.cfg.damping(),
		x:        x,
		own:      matrix.NewVector(r.ns),
		last:     make([]*asyncUpdate, n),
		partials: make([][]float64, n),
		lastRes:  make([]float64, n),
		resEst:   math.Inf(1),
	}
}

// merge folds one sweep in and recomputes the iterate over the stored
// contributions, in fixed worker order: y = Σ_w partial_w, the teleport
// coefficient Σ_w f·dangling_w + (1−f)·mass_w, and the synchronous
// round's own pagerank.JacobiStep, each site's self-loop term taken out
// at the value its owner swept — from that contribution's snapshot. When
// every contribution swept the same iterate the step reads exactly the
// synchronous one's — the owned sites partition the site space, so the
// per-worker masses partition Σx — and with mixed snapshots it is a
// chaotic relaxation of the same regular splitting, whose answer the
// verification rounds confirm.
func (a *asyncAccum) merge(u *asyncUpdate) {
	a.partials[u.idx] = append(a.partials[u.idx][:0], u.partial...)
	u.partial = a.partials[u.idx]
	a.last[u.idx] = u
	y := matrix.NewVector(a.r.ns)
	var coeff float64
	for _, w := range a.last {
		if w != nil {
			y.AddScaled(1, w.partial)
			coeff += a.f*w.dangling + (1-a.f)*w.mass
		}
	}
	// Ownership is fixed within an epoch: site s's row went into y, if at
	// all, with its owner's last sweep.
	for s, w := range a.r.owner {
		a.own[s] = 0
		if c := a.last[w]; c != nil {
			a.own[s] = c.x[s]
		}
	}
	pagerank.JacobiStep(y, a.own, a.r.digests.diag, a.f, coeff, a.r.tele)
	residual := y.L1Diff(a.x)
	a.x = y
	a.version++
	a.lastRes[u.idx] = residual
	if math.IsInf(a.resEst, 1) {
		// First merge of an epoch: the decaying max restarts from the
		// observed residual (Inf·decay would stay Inf forever).
		a.resEst = residual
	} else {
		a.resEst = math.Max(residual, a.resEst*asyncResDecay)
	}
}

// candidate reports whether the accumulator looks converged: every
// live worker has contributed to the current epoch (an accumulator
// missing a worker's rows is nowhere near the fixed point no matter how
// still it sits), every worker's latest merge moved the iterate by at
// most tol (a straggler's stale sweeps jolt the iterate each arrival;
// until those jolts die down the point is wrong, however quiet the fast
// workers are between them), and the decaying residual maximum is under
// tol. A candidate is not an answer — verification rounds confirm it
// against the true synchronous operator.
func (a *asyncAccum) candidate(tol float64) bool {
	for idx, alive := range a.r.alive {
		if !alive {
			continue
		}
		if a.last[idx] == nil || a.lastRes[idx] > tol {
			return false
		}
	}
	return a.resEst <= tol
}

// reset opens a new epoch after a membership change: ownership moved,
// so every stored contribution may cover the wrong row set. The merged
// iterate survives (it is still a valid starting point); the estimate
// restarts pessimistic.
func (a *asyncAccum) reset() {
	clear(a.last)
	clear(a.lastRes)
	a.resEst = math.Inf(1)
}

// recordMerge does the shared per-merge accounting: merge counters,
// the per-worker sweep decomposition and the staleness histogram.
func (r *run) recordMerge(idx int, staleness uint64) {
	r.stats.AsyncUpdatesMerged++
	r.stats.AsyncWorkerSweeps[idx]++
	r.stats.AsyncStalenessHist[min(staleness, asyncStaleBuckets-1)]++
}

// asyncPhase is the barrier-free schedule over the row-sharded chain:
// one merged sweep per step, received from the concurrent per-worker
// drivers by default, or drawn from a seeded sequence under
// Config.AsyncOrdered (every merge then lands at staleness zero, and
// with a fixed seed and fleet the SiteRank is bitwise reproducible —
// the sequential randomized update the literature analyzes). Worker
// losses reassign rows mid-phase and open a new epoch.
type asyncPhase struct {
	r   *run
	acc *asyncAccum
	// rejoined is Stats.WorkersRejoined as of the current epoch.
	rejoined int
	// swept marks the workers merged since the last fleet pass completed.
	swept []bool
	// next yields the next sweep to merge: where the two schedules
	// differ. publish (a new iterate or epoch is out), ack (worker idx's
	// delivered sweep was consumed) and stop are the concurrent fleet's
	// hooks, no-ops under the ordered schedule, which sweeps the
	// accumulator directly. All are set once, by startAsync.
	next          func() (*asyncUpdate, error)
	publish, stop func()
	ack           func(idx int)
}

// asyncFleet is the concurrent schedule's machinery: the snapshot the
// drivers sweep against, the channel they deliver on, and the per-driver
// acks they park on.
type asyncFleet struct {
	r       *run
	shared  atomic.Pointer[asyncSnapshot]
	updates chan *asyncUpdate
	acks    []chan struct{}
	stopCh  chan struct{}
	stop1   sync.Once
	wg      sync.WaitGroup
}

// startAsync opens the asynchronous phase from iterate x and, for the
// concurrent schedule, launches one driver per live worker.
func (r *run) startAsync(x matrix.Vector) *asyncPhase {
	nw := len(r.c.workers)
	r.stats.AsyncWorkerSweeps = make([]int, nw)
	r.stats.AsyncStalenessHist = make([]int, asyncStaleBuckets)
	r.c.asyncEpoch++
	a := &asyncPhase{r: r, acc: newAsyncAccum(r, x), rejoined: r.stats.WorkersRejoined, swept: make([]bool, nw)}
	if r.cfg.AsyncOrdered {
		rng := rand.New(rand.NewSource(r.cfg.AsyncSeed))
		a.next = func() (*asyncUpdate, error) {
			idxs := r.aliveIdxs()
			return r.sweep(idxs[rng.Intn(len(idxs))], a.acc.x, a.acc.version, r.c.asyncEpoch), nil
		}
		a.publish, a.stop, a.ack = func() {}, func() {}, func(int) {}
		return a
	}
	// Each driver has at most one undelivered update, so a channel
	// buffered to the fleet size never blocks a send.
	f := &asyncFleet{
		r:       r,
		updates: make(chan *asyncUpdate, nw),
		acks:    make([]chan struct{}, nw),
		stopCh:  make(chan struct{}),
	}
	a.next, a.stop, a.ack = f.next, f.stop, f.ack
	a.publish = func() {
		f.shared.Store(&asyncSnapshot{x: a.acc.x, version: a.acc.version, epoch: r.c.asyncEpoch})
	}
	a.publish()
	for _, idx := range r.aliveIdxs() {
		f.acks[idx] = make(chan struct{}, 1)
		f.wg.Add(1)
		go f.drive(idx)
	}
	return a
}

// schedule is the phase as the driver loop sees it. Its unit is the
// fleet pass — a stretch of merges in which every live worker's sweep
// landed at least once, the asynchronous counterpart of one synchronous
// round (chaotic relaxation converges at the rate of its slowest-updated
// block). Budgeting passes rather than merges makes MaxIter bound the
// straggler's refreshes, however many sweeps the fast workers fit in
// between: whether a run converges must not depend on how cheap the
// wire is.
func (a *asyncPhase) schedule() siteSchedule {
	return siteSchedule{what: "async siterank", unit: "fleet passes",
		saveEvery: a.r.cfg.checkpointEvery(), inFlight: !a.r.cfg.AsyncOrdered, step: a.step}
}

// passed records worker idx's merge and reports whether it completed a
// fleet pass. A lost worker stops being waited for; a re-admitted one is
// waited for again.
func (a *asyncPhase) passed(idx int) bool {
	a.swept[idx] = true
	for w, alive := range a.r.alive {
		if alive && !a.swept[w] {
			return false
		}
	}
	clear(a.swept)
	return true
}

// sweep performs one KindAsyncUpdate against worker idx from the given
// snapshot; a call failure or a malformed response travels in the
// update's err.
func (r *run) sweep(idx int, x []float64, version, epoch uint64) *asyncUpdate {
	u := &asyncUpdate{idx: idx, x: x, baseVer: version, epoch: epoch}
	resp, err := r.exchange(idx, &wire.Request{Kind: wire.KindAsyncUpdate, NumSites: r.ns, X: x, Epoch: epoch})
	if err == nil {
		err = r.checkSiteVector(idx, resp.Partial, resp.DanglingMass, resp.Mass)
	}
	if u.err = err; err == nil {
		u.partial, u.dangling, u.mass = resp.Partial, resp.DanglingMass, resp.Mass
	}
	return u
}

// drive keeps one sweep in flight against one worker: snapshot, sweep,
// deliver, wait for the merge ack, repeat. It exits on stop, or after
// delivering a failed sweep as its final update.
func (f *asyncFleet) drive(idx int) {
	defer f.wg.Done()
	for {
		select {
		case <-f.stopCh:
			return
		default:
		}
		sn := f.shared.Load()
		u := f.r.sweep(idx, sn.x, sn.version, sn.epoch)
		f.updates <- u
		if u.err != nil {
			return
		}
		select {
		case <-f.acks[idx]:
		case <-f.stopCh:
			return
		}
	}
}

// next receives the next delivered sweep, or the run's cancellation.
func (f *asyncFleet) next() (*asyncUpdate, error) {
	select {
	case <-f.r.ctx.Done():
		return nil, f.r.ctx.Err()
	case u := <-f.updates:
		return u, nil
	}
}

// ack releases worker idx's parked driver into its next sweep.
func (f *asyncFleet) ack(idx int) { f.acks[idx] <- struct{}{} }

// stop drains the fleet: closing stopCh releases parked drivers,
// in-flight sweeps complete and are discarded. Idempotent, so it can be
// both deferred (no error return leaves a driver behind) and called
// ahead of the verification phase.
func (f *asyncFleet) stop() {
	f.stop1.Do(func() { close(f.stopCh) })
	f.wg.Wait()
}

// newEpoch follows a membership change: ownership moved, so
// contributions keyed to the old partition must not mix with sweeps of
// the new one.
func (a *asyncPhase) newEpoch() {
	a.r.c.asyncEpoch++
	a.acc.reset()
	a.publish()
}

// step merges one sweep into the accumulator, which owns the iterate.
func (a *asyncPhase) step() (matrix.Vector, int, bool, error) {
	r := a.r
	if r.stats.WorkersRejoined != a.rejoined {
		// Re-admission moved rows back (safe-point schedules only).
		a.rejoined = r.stats.WorkersRejoined
		a.newEpoch()
	}
	u, err := a.next()
	if err != nil {
		return nil, 0, false, err
	}
	switch {
	case u.err != nil:
		if err := r.recoverLost(u.err, u.idx); err != nil {
			return nil, 0, false, err
		}
		a.newEpoch()
		return a.acc.x, 0, false, nil
	case u.epoch != r.c.asyncEpoch:
		// Dispatched before a membership change; the driver
		// re-snapshots under the new epoch.
		a.ack(u.idx)
		return a.acc.x, 0, false, nil
	}
	a.acc.merge(u)
	r.recordMerge(u.idx, a.acc.version-1-u.baseVer)
	a.publish()
	a.ack(u.idx)
	n := 0
	if a.passed(u.idx) {
		n = 1
	}
	return a.acc.x, n, a.acc.candidate(r.cfg.tol()), nil
}

// asyncDrain retires the asynchronous epoch on every live worker
// (KindAsyncAck). A worker lost at the ack goes through the normal
// loss path — its rows must reach a survivor before the verification
// rounds cover the chain.
func (r *run) asyncDrain() error {
	for _, idx := range r.aliveIdxs() {
		if _, err := r.exchange(idx, &wire.Request{Kind: wire.KindAsyncAck, Epoch: r.c.asyncEpoch}); err != nil {
			if err := r.recoverLost(err, idx); err != nil {
				return err
			}
		}
	}
	return nil
}
