package coordinator

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"lmmrank/internal/dist/wire"
)

func TestFileCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siterank.ckpt")
	ck := NewFileCheckpoint(path)

	// Empty store: Load is the documented nil, nil.
	st, err := ck.Load()
	if err != nil || st != nil {
		t.Fatalf("Load on a missing file = %v, %v, want nil, nil", st, err)
	}

	in := &CheckpointState{Digest: wire.Digest{1, 2, 3}, Round: 42, X: []float64{0.25, 0.75}}
	if err := ck.Save(in); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("temp file survived the atomic rename: stat err = %v", err)
	}
	out, err := ck.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if out.Digest != in.Digest || out.Round != in.Round || len(out.X) != len(in.X) ||
		out.X[0] != in.X[0] || out.X[1] != in.X[1] {
		t.Errorf("Load = %+v, want %+v", out, in)
	}

	// A later Save overwrites the earlier state.
	in.Round = 43
	in.X[0] = 0.5
	if err := ck.Save(in); err != nil {
		t.Fatalf("second Save: %v", err)
	}
	if out, err = ck.Load(); err != nil || out.Round != 43 || out.X[0] != 0.5 {
		t.Errorf("Load after overwrite = %+v, %v, want Round 43, X[0] 0.5", out, err)
	}

	if err := ck.Clear(); err != nil {
		t.Fatalf("Clear: %v", err)
	}
	if st, err := ck.Load(); err != nil || st != nil {
		t.Errorf("Load after Clear = %v, %v, want nil, nil", st, err)
	}
	if err := ck.Clear(); err != nil {
		t.Errorf("Clear on an already-empty store: %v", err)
	}
}

// TestFileCheckpointRefusesCorruptFiles: whatever has happened to the
// file, Load says so — it never hands back a state to resume from. The
// digest cannot do this: it covers the computation, not the iterate.
func TestFileCheckpointRefusesCorruptFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "siterank.ckpt")
	ck := NewFileCheckpoint(path)
	if err := ck.Save(&CheckpointState{Digest: wire.Digest{1, 2, 3}, Round: 42, X: []float64{0.25, 0.75}}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const (
		roundAt = 1 + len(wire.Digest{})
		countAt = roundAt + 8
		xAt     = countAt + 8
	)
	edit := func(at int, b ...byte) []byte {
		data := append([]byte(nil), good...)
		copy(data[at:], b)
		return data
	}
	cases := map[string][]byte{
		"one flipped mantissa bit in X":       edit(xAt, good[xAt]^0x01),
		"one flipped bit in Round":            edit(roundAt, good[roundAt]^0x01),
		"wrong magic":                         edit(0, 0xB0|good[0]&0x0F),
		"unknown version":                     edit(0, good[0]&0xF0|0x0F),
		"empty":                               {},
		"cut after the magic":                 good[:1],
		"cut inside the digest":               good[:roundAt-1],
		"cut after the digest":                good[:roundAt],
		"cut after the round":                 good[:countAt],
		"cut after the count":                 good[:xAt],
		"cut inside X":                        good[:xAt+8],
		"cut before the checksum":             good[:len(good)-4],
		"cut inside the checksum":             good[:len(good)-1],
		"a byte past the checksum":            append(append([]byte(nil), good...), 0),
		"a count of 2^32 over 16 bytes of X":  edit(countAt, 0, 0, 0, 0, 1, 0, 0, 0),
		"a count of 2^61 (8*count overflows)": edit(countAt, 0, 0, 0, 0, 0, 0, 0, 0x20),
	}
	for name, data := range cases {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if st, err := ck.Load(); err == nil {
			t.Errorf("%s: Load = %+v, want an error", name, st)
		}
	}
}

func TestMemCheckpointIsolatesState(t *testing.T) {
	ck := NewMemCheckpoint()
	in := &CheckpointState{Digest: wire.Digest{9}, Round: 7, X: []float64{0.5, 0.5}}
	if err := ck.Save(in); err != nil {
		t.Fatalf("Save: %v", err)
	}
	in.X[0] = -1 // the store must have cloned, not aliased
	out, err := ck.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if out.X[0] != 0.5 {
		t.Errorf("stored X aliased the caller's slice: X[0] = %v", out.X[0])
	}
	out.X[1] = -1 // and the loaded copy must not alias the store
	again, _ := ck.Load()
	if again.X[1] != 0.5 {
		t.Errorf("loaded X aliased the store: X[1] = %v", again.X[1])
	}
}

// cancelAfter interrupts a run from inside its own checkpoint: after the
// n-th successful Save it cancels the run's context. The cancellation
// lands in the sequential gap between power rounds with no wire call in
// flight.
type cancelAfter struct {
	Checkpoint
	n      int
	saves  int
	cancel context.CancelFunc
}

func (c *cancelAfter) Save(st *CheckpointState) error {
	if err := c.Checkpoint.Save(st); err != nil {
		return err
	}
	c.saves++
	if c.saves == c.n {
		c.cancel()
	}
	return nil
}

// TestResumeSiteRank interrupts the fleet's site-layer iteration after n
// checkpoint saves and resumes it from the file — on the coordinator
// that was cancelled, which must stay usable.
//
// The barrier rounds are deterministic: the resumed iterate continues
// the exact float sequence (the file keeps each float64's bits and
// worker order is unchanged) and the final ranks are bitwise identical
// to the uninterrupted run — L1 distance exactly 0.
func TestResumeSiteRank(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		n    int
	}{
		{"sync", Config{SiteRank: SiteRankSync}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Tol, cfg.MaxIter = 1e-12, 2000
			web := rankableWeb()
			_, a1 := startWorker(t)
			_, a2 := startWorker(t)
			c, err := Dial([]string{a1, a2})
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer c.Close()

			ref, err := c.Rank(web, cfg)
			if err != nil {
				t.Fatalf("reference Rank: %v", err)
			}
			if ref.Stats.SiteRankRounds <= tc.n+1 {
				t.Fatalf("reference converged in %d rounds — too few to interrupt at round %d",
					ref.Stats.SiteRankRounds, tc.n)
			}

			store := NewFileCheckpoint(filepath.Join(t.TempDir(), "siterank.ckpt"))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg.Checkpoint = &cancelAfter{Checkpoint: store, n: tc.n, cancel: cancel}
			if _, err := c.RankCtx(ctx, web, cfg); !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted Rank: err = %v, want context.Canceled", err)
			}
			st, err := store.Load()
			if err != nil || st == nil {
				t.Fatalf("checkpoint after the interrupt: %v, %v, want saved state", st, err)
			}

			cfg.Checkpoint = store
			res, err := c.Rank(web, cfg)
			if err != nil {
				t.Fatalf("resumed Rank: %v", err)
			}
			if res.Stats.ResumedFromRound != st.Round || st.Round <= 0 {
				t.Errorf("ResumedFromRound = %d, want %d (the checkpointed round, > 0)",
					res.Stats.ResumedFromRound, st.Round)
			}
			// Success must consume the checkpoint: a later unrelated run
			// on this store starts fresh.
			if st, err := store.Load(); err != nil || st != nil {
				t.Errorf("checkpoint survived a converged run: %v, %v", st, err)
			}

			if got, want := res.Stats.ResumedFromRound+res.Stats.SiteRankRounds, ref.Stats.SiteRankRounds; got != want {
				t.Errorf("resumed %d + executed %d = %d rounds, want the uninterrupted total %d",
					res.Stats.ResumedFromRound, res.Stats.SiteRankRounds, got, want)
			}
			if d := res.DocRank.L1Diff(ref.DocRank); d != 0 {
				t.Errorf("‖resumed − uninterrupted‖₁ = %g, want exactly 0", d)
			}
			if d := res.SiteRank.L1Diff(ref.SiteRank); d != 0 {
				t.Errorf("‖resumed − uninterrupted‖₁ on SiteRank = %g, want exactly 0", d)
			}
		})
	}
}

// recordSaves notes the round of every Save.
type recordSaves struct {
	Checkpoint
	rounds []int
}

func (c *recordSaves) Save(st *CheckpointState) error {
	c.rounds = append(c.rounds, st.Round)
	return c.Checkpoint.Save(st)
}

// TestSyncCheckpointCadenceIsAbsolute pins the synchronous save
// schedule: a snapshot lands on every round that is a multiple of
// CheckpointEvery, wherever the run resumed from. The cadence is not
// part of the digest, so a run interrupted at round 6 under a cadence of
// 3 resumes under a cadence of 4 and must save at 8, 12, … — not at 10.
func TestSyncCheckpointCadenceIsAbsolute(t *testing.T) {
	web := rankableWeb()
	_, a1 := startWorker(t)
	_, a2 := startWorker(t)
	c, err := Dial([]string{a1, a2})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	store := NewMemCheckpoint()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{SiteRank: SiteRankSync, Tol: 1e-12, MaxIter: 2000, CheckpointEvery: 3}
	cfg.Checkpoint = &cancelAfter{Checkpoint: store, n: 2, cancel: cancel}
	if _, err := c.RankCtx(ctx, web, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted Rank: err = %v, want context.Canceled", err)
	}
	if st, err := store.Load(); err != nil || st == nil || st.Round != 6 {
		t.Fatalf("checkpoint after two saves every 3 rounds: %+v, %v, want round 6", st, err)
	}

	rec := &recordSaves{Checkpoint: store}
	cfg.Checkpoint, cfg.CheckpointEvery = rec, 4
	res, err := c.Rank(web, cfg)
	if err != nil {
		t.Fatalf("resumed Rank: %v", err)
	}
	if res.Stats.ResumedFromRound != 6 {
		t.Fatalf("ResumedFromRound = %d, want 6", res.Stats.ResumedFromRound)
	}
	if len(rec.rounds) == 0 {
		t.Fatal("the resumed run never saved — converged too early to pin the cadence")
	}
	for i, round := range rec.rounds {
		if want := 8 + 4*i; round != want {
			t.Fatalf("saves at rounds %v, want 8, 12, 16, … (absolute multiples of 4)", rec.rounds)
		}
	}
}

// TestResumeRejectsForeignCheckpoint pins the digest guard: a checkpoint
// whose digest does not match this run's graph + configuration is
// ignored and the iteration starts fresh.
func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	web := rankableWeb()
	_, a1 := startWorker(t)
	c, err := Dial([]string{a1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	store := NewMemCheckpoint()
	if err := store.Save(&CheckpointState{
		Digest: wire.Digest{0xde, 0xad},
		Round:  3,
		X:      []float64{0.5, 0.5},
	}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	res, err := c.Rank(web, Config{SiteRank: SiteRankSync, Checkpoint: store})
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	if res.Stats.ResumedFromRound != 0 {
		t.Errorf("ResumedFromRound = %d, want 0: a foreign digest must not resume",
			res.Stats.ResumedFromRound)
	}
}
