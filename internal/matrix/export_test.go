package matrix

import (
	"fmt"
	"slices"
)

// AtWidth returns a copy of m whose sources are stored 4 bytes wide, or
// 2 when wideSources is false, and whose divisors and multiplicities are
// float64, or 2 bytes when wideValues is false, whatever its order and
// values: the hook that builds one matrix in each of the four forms. It
// panics if a source or a value does not fit 2 bytes.
func AtWidth(m *CSR, wideSources, wideValues bool) *CSR {
	rows, div, mul := m.cols.widened()
	rows, div, mul = slices.Clone(rows), slices.Clone(div), slices.Clone(mul)
	c := &CSR{n: m.n, colPtr: slices.Clone(m.colPtr), excPos: slices.Clone(m.excPos)}
	switch {
	case wideSources && wideValues:
		c.cols = inForm[uint32, float64](rows, div, mul)
	case wideSources:
		c.cols = inForm[uint32, uint16](rows, div, mul)
	case wideValues:
		c.cols = inForm[uint16, float64](rows, div, mul)
	default:
		c.cols = inForm[uint16, uint16](rows, div, mul)
	}
	return c
}

func inForm[I uint16 | uint32, V uint16 | float64](rows []uint32, div, mul []float64) *columns[I, V] {
	for _, i := range rows {
		if uint32(I(i)) != i {
			panic(fmt.Sprintf("matrix: source %d does not fit 2 bytes", i))
		}
	}
	if _, narrow := any(V(0)).(uint16); narrow && !(allNarrow(div) && allNarrow(mul)) {
		panic("matrix: a divisor or multiplicity does not fit 2 bytes")
	}
	return &columns[I, V]{convert[I](rows), convert[V](div), convert[V](mul)}
}

// widths returns the bytes one source and one value of m take.
func widths(m *CSR) (source, value int) {
	switch m.cols.(type) {
	case *columns[uint16, uint16]:
		return 2, 2
	case *columns[uint16, float64]:
		return 2, 8
	case *columns[uint32, uint16]:
		return 4, 2
	}
	return 4, 8
}

// sources and values return m's sources as uint32 and its divisors and
// multiplicities as float64, copied.
func sources(m *CSR) []uint32 {
	rows, _, _ := m.cols.widened()
	return slices.Clone(rows)
}

func values(m *CSR) (rowDiv, excMul []float64) {
	_, div, mul := m.cols.widened()
	return slices.Clone(div), slices.Clone(mul)
}
