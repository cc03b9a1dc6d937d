package coordinator

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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
	// X is the iterate itself, exact to the bit (the file checkpoint
	// stores each float64's bits verbatim, under a checksum), so a resumed
	// run continues the very same float sequence an uninterrupted run
	// would have produced.
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
// process restarts (the lmmcoord -checkpoint/-resume path). Save writes
// a sibling temporary file, syncs it and renames it over the target, so
// a crash mid-save leaves the previous snapshot intact — the rename is
// the commit point, and what it commits is already on disk.
//
// The file is fixed-width little-endian, float bits verbatim:
//
//	byte 0      checkpointMagic | checkpointVersion
//	32 bytes    Digest
//	uint64      Round
//	uint64      len(X)
//	len(X) × 8  X
//	uint32      CRC-32C of every byte before it
//
// The digest vouches for the computation, the checksum for the iterate:
// a snapshot with one flipped bit is an error from Load, not a run
// resumed from a different vector. It detects corruption; it does not
// authenticate the file.
type FileCheckpoint struct {
	path string
}

const (
	checkpointMagic     = 0xC0 // high nibble of byte 0
	checkpointVersion   = 0x01 // low nibble of byte 0
	checkpointHeaderLen = 1 + len(wire.Digest{}) + 8 + 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// NewFileCheckpoint returns a checkpoint backed by the given file path
// (which need not exist yet; its directory must).
func NewFileCheckpoint(path string) *FileCheckpoint {
	return &FileCheckpoint{path: path}
}

// Save atomically and durably replaces the snapshot file.
func (f *FileCheckpoint) Save(s *CheckpointState) error {
	le := binary.LittleEndian
	data := make([]byte, 0, checkpointHeaderLen+8*len(s.X)+4)
	data = append(data, checkpointMagic|checkpointVersion)
	data = append(data, s.Digest[:]...)
	data = le.AppendUint64(data, uint64(s.Round))
	data = le.AppendUint64(data, uint64(len(s.X)))
	for _, v := range s.X {
		data = le.AppendUint64(data, math.Float64bits(v))
	}
	data = le.AppendUint32(data, crc32.Checksum(data, castagnoli))

	tmp := f.path + ".tmp"
	if err := writeSynced(tmp, data); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("coordinator: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp, f.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("coordinator: commit checkpoint: %w", err)
	}
	return nil
}

// writeSynced creates path holding data and returns once it is on disk.
func writeSynced(path string, data []byte) error {
	file, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = file.Write(data)
	if err == nil {
		err = file.Sync()
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load reads the snapshot file; a missing file is (nil, nil), a
// corrupt one — wrong magic or version, a length that disagrees with
// the stated count, a checksum mismatch — an error.
func (f *FileCheckpoint) Load() (*CheckpointState, error) {
	data, err := os.ReadFile(f.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("coordinator: read checkpoint: %w", err)
	}
	s, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("coordinator: decode checkpoint %s: %w", f.path, err)
	}
	return s, nil
}

// decodeCheckpoint parses a snapshot file. The count is held against
// the bytes present before anything is sized by it.
func decodeCheckpoint(data []byte) (*CheckpointState, error) {
	le := binary.LittleEndian
	if len(data) == 0 {
		return nil, io.ErrUnexpectedEOF
	}
	if m := data[0] & 0xF0; m != checkpointMagic {
		return nil, fmt.Errorf("bad magic 0x%02x (want 0x%02x): not a checkpoint file", m, checkpointMagic)
	}
	if v := data[0] & 0x0F; v != checkpointVersion {
		return nil, fmt.Errorf("checkpoint file version %d, this build reads %d", v, checkpointVersion)
	}
	if len(data) < checkpointHeaderLen+4 {
		return nil, io.ErrUnexpectedEOF
	}
	s := &CheckpointState{}
	p := 1 + copy(s.Digest[:], data[1:])
	round, count := le.Uint64(data[p:]), le.Uint64(data[p+8:])
	body := data[checkpointHeaderLen : len(data)-4]
	if count != uint64(len(body))/8 || len(body)%8 != 0 {
		return nil, fmt.Errorf("the header counts %d floats, %d bytes follow it", count, len(body))
	}
	if round > math.MaxInt {
		return nil, fmt.Errorf("round %d out of range", round)
	}
	if got, want := le.Uint32(data[len(data)-4:]), crc32.Checksum(data[:len(data)-4], castagnoli); got != want {
		return nil, fmt.Errorf("checksum mismatch: the file says %08x, its bytes hash to %08x", got, want)
	}
	s.Round = int(round)
	s.X = make([]float64, count)
	for i := range s.X {
		s.X[i] = math.Float64frombits(le.Uint64(body[8*i:]))
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
