package coordinator

import (
	"errors"
	"fmt"
	"math"

	"lmmrank/internal/dist/wire"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
)

// This file is the SiteRank driver on the fleet: the point-Jacobi
// iteration on (I − f·M′)x = c·v over the site chain row-sharded inside
// the site shards. A round reduces the product x'M(G_S) under a barrier
// and pagerank.JacobiStep finishes it, dividing each site's self-loop
// out. The answer is the first round that moved the iterate by at most
// Tol, hence within Tol/(1 − f) of the exact πS (Stats.SiteRankRounds).

// fleetSiteRank computes the SiteRank on the fleet and returns it with
// the rounds this run executed. The loop head is a safe point — no
// partial results are in flight — so rejoined workers are re-admitted
// there. The budget counts rounds, of which a resumed checkpoint already
// covers start.
func (r *run) fleetSiteRank() (matrix.Vector, int, error) {
	budget := r.cfg.maxIter()
	x, start, digest, err := r.resumeSiteRank(budget)
	if err != nil {
		return nil, 0, err
	}
	tol, ckpt, every := r.cfg.tol(), r.cfg.Checkpoint, r.cfg.checkpointEvery()
	next := matrix.NewVector(r.ns)
	done := start
	for done < budget {
		if err := r.ctx.Err(); err != nil {
			return nil, 0, err
		}
		if err := r.maybeReadmit(); err != nil {
			return nil, 0, err
		}
		complete, err := r.barrierRound(x, next)
		if err != nil {
			return nil, 0, err
		}
		if !complete {
			continue
		}
		residual := next.L1Diff(x)
		x, next = next, x
		done++
		if residual <= tol {
			if ckpt != nil {
				if err := ckpt.Clear(); err != nil {
					return nil, 0, err
				}
			}
			return x, done - start, nil
		}
		if ckpt != nil && done%every == 0 {
			if err := ckpt.Save(&CheckpointState{Digest: digest, Round: done, X: x}); err != nil {
				return nil, 0, err
			}
		}
	}
	return nil, 0, fmt.Errorf("coordinator: distributed siterank: %w after %d rounds", matrix.ErrNotConverged, done)
}

// resumeSiteRank seeds the iteration: from a checkpointed snapshot when
// one exists and its digest matches this computation — the resumed run
// then continues the exact float sequence the interrupted run was
// producing — else from Warm.SiteStart when it fits the site space, else
// from the uniform vector. A snapshot from a different graph, iteration
// or parameterization (digest mismatch), a malformed one, or one at or past
// the budget is ignored rather than trusted.
func (r *run) resumeSiteRank(budget int) (x matrix.Vector, start int, digest wire.Digest, err error) {
	if len(r.warm.SiteStart) == r.ns {
		// The rounds overwrite their iterates; the caller's vector is read-only.
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
// the dangling mass that came with it must be finite. A NaN admitted
// here would never cross Tol — the iteration would burn its whole budget
// on a poisoned iterate — so it is an error naming the worker instead.
func (r *run) checkSiteVector(idx int, v []float64, mass float64) error {
	addr := r.c.workers[idx].addr
	if len(v) != r.ns {
		return fmt.Errorf("coordinator: %s returned a site vector of length %d, want %d", addr, len(v), r.ns)
	}
	if math.IsNaN(mass) || math.IsInf(mass, 0) {
		return fmt.Errorf("coordinator: %s returned a non-finite mass %g", addr, mass)
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
