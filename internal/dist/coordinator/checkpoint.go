package coordinator

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"

	"lmmrank/internal/dist/wire"
)

// CheckpointState is one saved snapshot of an in-flight distributed
// SiteRank power iteration: the iterate after Round completed rounds,
// bound to a digest of the computation that produced it. The digest
// covers the SiteRank mode, the graph content (every shard digest and
// the chain), and the numeric parameters, so a resume against a
// different graph or configuration is detected and refused rather than
// silently continued into a wrong fixed point.
type CheckpointState struct {
	// Digest identifies the computation; see run.checkpointDigest.
	Digest wire.Digest
	// Round is how many power rounds — fleet passes, in the asynchronous
	// mode — the iterate has absorbed.
	Round int
	// X is the iterate itself, exact to the bit (gob, which the file
	// checkpoint uses, round-trips float64 losslessly), so a resumed run
	// continues the very same float sequence an uninterrupted run would
	// have produced.
	X []float64
}

func (s *CheckpointState) clone() *CheckpointState {
	c := *s
	c.X = append([]float64(nil), s.X...)
	return &c
}

// valid rejects snapshots no resume should trust: a negative round, or
// a non-finite or empty iterate.
func (s *CheckpointState) valid() bool {
	if s == nil || s.Round < 0 || len(s.X) == 0 {
		return false
	}
	for _, v := range s.X {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Checkpoint persists SiteRank power-iteration state so a coordinator
// restart resumes from the last saved round instead of recomputing.
//
// Contract: Save replaces the previous snapshot atomically — a reader
// observes either the old or the new state, never a mix. Load returns
// the last saved state, or (nil, nil) when no snapshot exists; the
// returned state is the caller's to keep. Clear removes any snapshot
// and is a no-op when none exists. Implementations must be safe for
// use from a single run at a time (runs are serialized by the
// coordinator); they need not support concurrent runs sharing one
// checkpoint. A Save error fails the run — a checkpoint that silently
// stopped persisting is worse than none.
type Checkpoint interface {
	Save(*CheckpointState) error
	Load() (*CheckpointState, error)
	Clear() error
}

// MemCheckpoint is an in-memory Checkpoint: it survives coordinator
// reconstruction within one process (tests, embedded use), not a
// process restart. The zero value is ready to use.
type MemCheckpoint struct {
	mu    sync.Mutex
	state *CheckpointState
}

// NewMemCheckpoint returns an empty in-memory checkpoint.
func NewMemCheckpoint() *MemCheckpoint { return &MemCheckpoint{} }

// Save stores a private copy of the state.
func (m *MemCheckpoint) Save(s *CheckpointState) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state = s.clone()
	return nil
}

// Load returns a copy of the last saved state, or (nil, nil).
func (m *MemCheckpoint) Load() (*CheckpointState, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state == nil {
		return nil, nil
	}
	return m.state.clone(), nil
}

// Clear drops the stored state.
func (m *MemCheckpoint) Clear() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state = nil
	return nil
}

// FileCheckpoint persists snapshots to one file, surviving coordinator
// process restarts (the lmmcoord -checkpoint/-resume path). Save gob-
// encodes to a sibling temporary file and renames it over the target,
// so a crash mid-save leaves the previous snapshot intact — the rename
// is the commit point.
type FileCheckpoint struct {
	path string
}

// NewFileCheckpoint returns a checkpoint backed by the given file path
// (which need not exist yet; its directory must).
func NewFileCheckpoint(path string) *FileCheckpoint {
	return &FileCheckpoint{path: path}
}

// Save atomically replaces the snapshot file.
func (f *FileCheckpoint) Save(s *CheckpointState) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return fmt.Errorf("coordinator: encode checkpoint: %w", err)
	}
	tmp := f.path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("coordinator: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp, f.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("coordinator: commit checkpoint: %w", err)
	}
	return nil
}

// Load reads the snapshot file; a missing file is (nil, nil), a
// corrupt one an error.
func (f *FileCheckpoint) Load() (*CheckpointState, error) {
	data, err := os.ReadFile(f.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("coordinator: read checkpoint: %w", err)
	}
	s := &CheckpointState{}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(s); err != nil {
		return nil, fmt.Errorf("coordinator: decode checkpoint: %w", err)
	}
	return s, nil
}

// Clear removes the snapshot file if present.
func (f *FileCheckpoint) Clear() error {
	if err := os.Remove(f.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("coordinator: clear checkpoint: %w", err)
	}
	return nil
}

// checkpointDigest fingerprints the computation a snapshot belongs to:
// the SiteRank mode (batched rounds regroup float summation, so their
// iterates are not interchangeable with unbatched ones mid-run), the
// site-space dimension, the numeric parameters, the teleport vector,
// and the content digests of every shard (unbatched mode: chain rows
// ride in the shards) or of the replicated chain (batched mode). Two
// runs with equal digests compute the identical float sequence, which
// is what makes resuming from a foreign process's snapshot sound.
func (r *run) checkpointDigest() wire.Digest {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeFloat := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	mode := r.cfg.SiteRank
	switch mode {
	case SiteRankBatched:
		writeInt(1)
	case SiteRankAsync:
		// The async discriminators extend the historical 0/1 values, so
		// pre-async snapshots stay resumable by the modes that wrote
		// them. The ordered schedule gets its own value plus the seed: a
		// resumed ordered run restarts the schedule, and seeds must not
		// cross-pollinate through a shared snapshot. (2 and 3 marked
		// async snapshots whose Round counted merges, not fleet passes.)
		if r.cfg.AsyncOrdered {
			writeInt(5)
			writeInt(int(r.cfg.AsyncSeed))
		} else {
			writeInt(4)
		}
	default:
		writeInt(0)
	}
	writeInt(r.ns)
	writeFloat(r.cfg.damping())
	writeFloat(r.cfg.tol())
	writeInt(r.cfg.maxIter())
	writeInt(len(r.tele))
	for _, v := range r.tele {
		writeFloat(v)
	}
	if mode == SiteRankBatched {
		h.Write(r.chainRef[:])
	} else {
		for _, ref := range r.refs {
			h.Write(ref.Digest[:])
		}
	}
	var out wire.Digest
	h.Sum(out[:0])
	return out
}
