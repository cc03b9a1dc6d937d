package coordinator

import (
	"errors"
	"fmt"
	"math"

	"lmmrank/internal/dist/wire"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
)

// This file is the one SiteRank driver. Every fleet-side mode is the
// same point-Jacobi iteration on (I − f·M′)x = c·v over the site chain
// row-sharded inside the site shards: a round reduces the product
// x'M(G_S) and pagerank.JacobiStep finishes it, dividing each site's
// self-loop out. The modes differ only in the schedule that advances the
// iterate (a barrier every round, or no barrier at all — sweeps merged
// as they arrive or as a seeded schedule draws them). run.iterate owns
// what the schedules share; a siteSchedule carries what they do not.
// Every schedule answers with a barrier round that moved the iterate by
// at most Tol, hence within Tol/(1 − f) of the exact πS
// (Stats.SiteRankRounds).

// siteSchedule is one schedule's contribution to the driver loop.
type siteSchedule struct {
	// what and unit word the not-converged error.
	what, unit string
	// saveEvery is the checkpoint cadence in the step's units — rounds,
	// or fleet passes of merged sweeps (0 = never save).
	saveEvery int
	// inFlight marks a schedule whose sweeps stay on the wire between
	// steps. Its step head is no safe point: rejoined workers wait for
	// the next barrier phase.
	inFlight bool
	// step advances the schedule's iterate and returns it, with the
	// units consumed — 0 when the step was spent on loss recovery and
	// must be redone, or merged a sweep that completed no fleet pass —
	// and whether the iteration converged.
	step func() (x matrix.Vector, n int, converged bool, err error)
}

// fleetSiteRank computes the SiteRank on the fleet in the configured
// mode and returns it with the rounds (or merges plus verification
// rounds) this run executed.
func (r *run) fleetSiteRank() (matrix.Vector, int, error) {
	budget := r.cfg.maxIter()
	x, start, digest, err := r.resumeSiteRank(budget)
	if err != nil {
		return nil, 0, err
	}

	var rounds int
	if r.cfg.SiteRank == SiteRankAsync {
		x, rounds, err = r.asyncSiteRank(x, start, budget, digest)
	} else {
		x, rounds, err = r.iterate(r.barrierSchedule("distributed siterank", x, r.cfg.checkpointEvery()), start, budget, digest)
	}
	if err != nil {
		return nil, 0, err
	}
	if ckpt := r.cfg.Checkpoint; ckpt != nil {
		if err := ckpt.Clear(); err != nil {
			return nil, 0, err
		}
	}
	return x, rounds, nil
}

// iterate is the driver loop every schedule runs under. It owns the
// cancellation check, re-admission at safe points, the budget (in the
// step's units, of which a resumed checkpoint already covers start),
// the checkpoint cadence and the not-converged error. It returns the
// converged iterate and the units this run executed — with the
// not-converged error, the last iterate and the whole budget.
func (r *run) iterate(s siteSchedule, start, budget int, digest wire.Digest) (matrix.Vector, int, error) {
	done := start
	var x matrix.Vector
	for done < budget {
		if err := r.ctx.Err(); err != nil {
			return nil, 0, err
		}
		if !s.inFlight {
			if err := r.maybeReadmit(); err != nil {
				return nil, 0, err
			}
		}
		var n int
		var converged bool
		var err error
		x, n, converged, err = s.step()
		if err != nil {
			return nil, 0, err
		}
		done += n
		if converged {
			return x, done - start, nil
		}
		if ckpt := r.cfg.Checkpoint; ckpt != nil && n > 0 && s.saveEvery > 0 && done%s.saveEvery == 0 {
			if err := ckpt.Save(&CheckpointState{Digest: digest, Round: done, X: x}); err != nil {
				return nil, 0, err
			}
		}
	}
	return x, done - start, fmt.Errorf("coordinator: %s: %w after %d %s", s.what, matrix.ErrNotConverged, done, s.unit)
}

// asyncSiteRank runs the barrier-free schedule from x and confirms its
// candidate with barrier rounds; it returns the answer and the merges
// plus barrier rounds it took.
func (r *run) asyncSiteRank(x matrix.Vector, start, budget int, digest wire.Digest) (matrix.Vector, int, error) {
	if start == 0 && len(r.warm.SiteStart) == r.ns {
		// The accumulator rebuilds its iterate from the workers heard so
		// far, which throws a seed away. One barrier round first answers
		// outright when the seed has converged, as in the barrier modes;
		// a seed that has not is still where the accumulator starts.
		seeded, n, err := r.iterate(r.barrierSchedule("async siterank seed round", x, 0), 0, 1, digest)
		r.stats.AsyncVerifyRounds = n
		if err == nil {
			return seeded, n, nil
		}
		if !errors.Is(err, matrix.ErrNotConverged) {
			return nil, 0, err
		}
		x = seeded
	}
	async := r.startAsync(x)
	defer async.stop()
	x, _, err := r.iterate(async.schedule(), start, budget, digest)
	if err != nil {
		return nil, 0, err
	}
	// A candidate is not an answer. Drain the drivers, retire the epoch,
	// and iterate the true synchronous operator until the residual
	// crosses Tol: an optimistic estimate costs extra rounds, never a
	// wrong result — and the barrier is where rejoined workers are
	// re-admitted.
	async.stop()
	if err := r.asyncDrain(); err != nil {
		return nil, 0, err
	}
	x, n, err := r.iterate(r.barrierSchedule("async siterank verification", x, 0), 0, budget, digest)
	if err != nil {
		return nil, 0, err
	}
	r.stats.AsyncVerifyRounds += n
	return x, r.stats.AsyncUpdatesMerged + r.stats.AsyncVerifyRounds, nil
}

// resumeSiteRank seeds the iteration: from a checkpointed snapshot when
// one exists and its digest matches this computation — the resumed run
// then continues the exact float sequence the interrupted run was
// producing — else from Warm.SiteStart when it fits the site space, else
// from the uniform vector. A snapshot from a different graph, mode or
// parameterization (digest mismatch), a malformed one, or one at or past
// the budget is ignored rather than trusted.
func (r *run) resumeSiteRank(budget int) (x matrix.Vector, start int, digest wire.Digest, err error) {
	if len(r.warm.SiteStart) == r.ns {
		// The schedules iterate in place; the caller's vector is read-only.
		x = r.warm.SiteStart.Clone()
	} else {
		x = matrix.Uniform(r.ns)
	}
	if r.cfg.Checkpoint == nil {
		return x, 0, digest, nil
	}
	digest = r.checkpointDigest()
	st, err := r.cfg.Checkpoint.Load()
	if err != nil {
		return nil, 0, digest, err
	}
	if st != nil && st.Digest == digest && st.valid() && len(st.X) == r.ns && st.Round < budget {
		x = append(matrix.Vector(nil), st.X...)
		start = st.Round
		r.stats.ResumedFromRound = st.Round
	}
	return x, start, digest, nil
}

// recoverLost is the one loss path of the site layer. A transport
// failure (errLost) marks the listed workers dead and charges the retry
// budget once — one interrupted exchange, however many peers it took
// down; their sites — chain rows ride inside the shards — move to the
// lightest survivors and re-ship, so the caller only has to redo the
// exchange. Any other error (a live peer refusing, a malformed response)
// is returned unchanged: it is never retried.
func (r *run) recoverLost(cause error, idxs ...int) error {
	if !errors.Is(cause, errLost) {
		return cause
	}
	for _, idx := range idxs {
		moved, err := r.lose(idx, cause)
		if err != nil {
			return err
		}
		if len(moved) > 0 {
			if err := r.ship(moved); err != nil {
				return err
			}
		}
	}
	r.stats.Retries++
	return nil
}

// checkSiteVector is the one response validator of the site layer: a
// worker's site-space vector must have one entry per site, and it and
// the scalars that came with it must be finite. A NaN admitted here
// would never cross Tol — the iteration would burn its whole budget on
// a poisoned iterate — so it is an error naming the worker instead.
func (r *run) checkSiteVector(idx int, v []float64, scalars ...float64) error {
	addr := r.c.workers[idx].addr
	if len(v) != r.ns {
		return fmt.Errorf("coordinator: %s returned a site vector of length %d, want %d", addr, len(v), r.ns)
	}
	for _, x := range scalars {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("coordinator: %s returned a non-finite mass %g", addr, x)
		}
	}
	for s, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("coordinator: %s returned a non-finite value %g for site %d", addr, x, s)
		}
	}
	return nil
}

// barrierRound computes one synchronous round over the row shards into
// y without ever holding M(G_S) product-side: every live worker returns
// the partial product over the rows it owns plus its dangling mass —
// N_S floats each way, the paper's small site-layer cost — the partials
// reduce in ascending worker order (float determinism), and
// pagerank.JacobiStep finishes the round with the self-loops read from
// the shard rows. It reports false, with y undefined, when a worker died
// mid-round: its rows were reassigned, and the round must be redone
// against the surviving fleet so the reduce covers every row exactly
// once.
func (r *run) barrierRound(x, y matrix.Vector) (bool, error) {
	idxs := r.aliveIdxs()
	resps := make([]*wire.Response, len(idxs))
	errs := make([]error, len(idxs))
	req := &wire.Request{Kind: wire.KindPowerRound, NumSites: r.ns, X: x}
	fanOut(idxs, func(i, idx int) {
		resps[i], errs[i] = r.exchange(idx, req)
	})
	var lost []int
	var lostErr error
	for i, idx := range idxs {
		switch err := errs[i]; {
		case errors.Is(err, errLost):
			lost, lostErr = append(lost, idx), err
		case err != nil:
			return false, err
		default:
			if err := r.checkSiteVector(idx, resps[i].Partial, resps[i].DanglingMass); err != nil {
				return false, err
			}
		}
	}
	if len(lost) > 0 {
		return false, r.recoverLost(lostErr, lost...)
	}
	y.Fill(0)
	var dangling float64
	for _, resp := range resps {
		y.AddScaled(1, resp.Partial)
		dangling += resp.DanglingMass
	}
	f := r.cfg.damping()
	pagerank.JacobiStep(y, x, r.digests.diag, f, f*dangling+(1-f)*x.Sum(), r.tele)
	return true, nil
}

// barrierSchedule is the row-sharded chain under a barrier every
// round: the synchronous mode, and the verification phase that confirms
// an asynchronous candidate.
func (r *run) barrierSchedule(what string, x matrix.Vector, saveEvery int) siteSchedule {
	tol := r.cfg.tol()
	next := matrix.NewVector(r.ns)
	return siteSchedule{what: what, unit: "rounds", saveEvery: saveEvery,
		step: func() (matrix.Vector, int, bool, error) {
			complete, err := r.barrierRound(x, next)
			if err != nil || !complete {
				return x, 0, false, err
			}
			residual := next.L1Diff(x)
			x, next = next, x
			return x, 1, residual <= tol, nil
		}}
}
