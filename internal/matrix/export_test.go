package matrix

import (
	"fmt"
	"slices"
)

// AtWidth returns a copy of m whose sources are stored 4 bytes wide, or
// 2 when wide is false, whatever its order: the hook that builds one
// matrix at both widths. It panics if an index does not fit 2 bytes.
func AtWidth(m *CSR, wide bool) *CSR {
	rows := m.rows32
	if rows == nil {
		rows = asWidth[uint32](m.rows16)
	}
	c := &CSR{n: m.n, colPtr: slices.Clone(m.colPtr), rowDiv: slices.Clone(m.rowDiv),
		excPos: slices.Clone(m.excPos), excMul: slices.Clone(m.excMul)}
	if wide {
		c.rows32 = append(make([]uint32, 0, len(rows)), rows...)
		return c
	}
	for _, i := range rows {
		if i > 0xFFFF {
			panic(fmt.Sprintf("matrix: source %d does not fit 2 bytes", i))
		}
	}
	c.rows16 = asWidth[uint16](rows)
	return c
}
