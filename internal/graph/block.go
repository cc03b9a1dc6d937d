package graph

import (
	"encoding/binary"
	"unsafe"
)

// NativeBlocks says the host lays numbers out as a block does — a packed
// column's layout in the graph file and on the wire: its elements'
// little-endian bytes back to back, made only by WriteBlock and
// ReadBlock. Then a column's memory is its block, and it crosses as one
// copy each way. Tests clear it to run a big-endian host's path.
var NativeBlocks = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// WriteBlock hands write v's block: on a little-endian host in one call
// with v's own memory (aliased: write must not keep it), elsewhere a
// piece at a time, converted element by element.
func WriteBlock[T uint32 | float64](v []T, write func([]byte) (int, error)) error {
	m, size := memory(v)
	if NativeBlocks {
		_, err := write(m)
		return err
	}
	for piece := make([]byte, min(len(m), pieceBytes)); len(m) > 0; m = m[len(piece):] {
		piece = piece[:min(len(m), cap(piece))]
		reorder(piece, m, size)
		if _, err := write(piece); err != nil {
			return err
		}
	}
	return nil
}

// ReadBlock fills v from a block, read filling each slice it is handed
// with the block's next bytes: on a little-endian host once, with v's
// own memory, elsewhere a piece at a time.
func ReadBlock[T uint32 | float64](v []T, read func([]byte) error) error {
	m, size := memory(v)
	if NativeBlocks {
		return read(m)
	}
	for piece := make([]byte, min(len(m), pieceBytes)); len(m) > 0; m = m[len(piece):] {
		piece = piece[:min(len(m), cap(piece))]
		if err := read(piece); err != nil {
			return err
		}
		reorder(m[:len(piece)], piece, size)
	}
	return nil
}

// memory returns the bytes of v's elements, aliased, and the size of one.
func memory[T uint32 | float64](v []T) ([]byte, int) {
	var zero T
	size := int(unsafe.Sizeof(zero))
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), size*len(v)), size
}

// reorder copies len(dst) bytes of src to dst an element at a time, each
// read in the host's byte order and written little-endian. Either way
// round that is one operation: a copy on a little-endian host, each
// element's bytes reversed on a big-endian one.
func reorder(dst, src []byte, size int) {
	for i := 0; i < len(dst); i += size {
		if size == 4 {
			le.PutUint32(dst[i:], binary.NativeEndian.Uint32(src[i:]))
		} else {
			le.PutUint64(dst[i:], binary.NativeEndian.Uint64(src[i:]))
		}
	}
}
