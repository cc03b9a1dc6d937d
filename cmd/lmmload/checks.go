package main

import (
	"context"
	"fmt"

	"lmmrank"
)

// agreeTol is the L1 distance within which two solves of the same web
// must agree: warm against cold, fleet against single process, engine
// against the one-shot pipeline.
const agreeTol = 1e-9

// finalChecks verifies the run's outputs after everything timed is
// over. It returns how many checks it made and the ones that failed.
//
//   - serve-*: a sample of the workload's own queries is answered again
//     and each Top table must equal TopDocs of the returned DocRank
//     bit-for-bit (the inline check only sees that it is sorted).
//   - solve-paper: the first answer must agree with one-shot
//     LayeredDocRank.
//   - every other workload: the engine's final answer — after every
//     Update of the run — must agree with a fresh, cold LocalEngine over
//     the graph it now serves; for dist-wan this is the fleet against
//     the single process.
func finalChecks(ctx context.Context, eng engine, w workload, tf *traffic, seed int64, orig *lmmrank.DocGraph, first *lmmrank.Result) (int, []string) {
	var t tally
	dg := eng.DocGraph()

	if w.mix == mixServe {
		gen := newQueryGen(w.mix, seed, 900)
		for i := 0; i < checkedSample; i++ {
			q := tf.query(gen.next())
			res, err := eng.Rank(ctx, q)
			if err == nil {
				err = sameTop(res.Top, lmmrank.TopDocs(dg, res.DocRank, q.TopK))
			}
			t.op(err, "check: Top vs TopDocs")
		}
	}

	if w.mix == mixSolve {
		// Updates work on copy-on-write clones, so orig still is the web
		// first was computed on.
		one, err := lmmrank.LayeredDocRank(orig, lmmrank.WebConfig{})
		if err == nil {
			err = agree(first.DocRank, one.DocRank, "first answer vs one-shot LayeredDocRank")
		}
		t.op(err, "check")
		return t.attempted, t.failures
	}

	final, err := eng.Rank(ctx, lmmrank.Query{})
	if err == nil {
		var cold *lmmrank.LocalEngine
		if cold, err = lmmrank.NewLocalEngine(dg, lmmrank.EngineOptions{}); err == nil {
			var ref *lmmrank.Result
			if ref, err = cold.Rank(ctx, lmmrank.Query{}); err == nil {
				err = agree(final.DocRank, ref.DocRank, "final snapshot vs cold LocalEngine")
			}
		}
	}
	t.op(err, "check")
	return t.attempted, t.failures
}

func sameTop(got, want []lmmrank.DocScore) error {
	if len(got) != len(want) {
		return fmt.Errorf("Top has %d rows, TopDocs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("Top row %d is %+v, TopDocs gives %+v", i, got[i], want[i])
		}
	}
	return nil
}

func agree(a, b lmmrank.Vector, what string) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d vs %d documents", what, len(a), len(b))
	}
	if d := a.L1Diff(b); !(d < agreeTol) {
		return fmt.Errorf("%s: L1 distance %.3e, want < %.0e", what, d, agreeTol)
	}
	return nil
}
