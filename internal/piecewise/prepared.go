package piecewise

import "unsafe"

// Prepared is the batch-kernel evaluation layout of a Table: the same
// coefficients, re-packed so the hot loop needs no multiplies, no
// compare-chains and at most one cache line per lookup.
//
//   - Rows are padded to the next power of two of len(Terms) (3 → 4,
//     5 → 8), so the row offset is a shift of the sub-domain index
//     instead of a multiply, and a 4-float row (32 B) or 8-float row
//     (64 B) never straddles a cache line.
//   - The backing array is allocated with slack and re-sliced so the
//     first row starts on a 64-byte boundary.
//   - The clamp parameters are carried next to the coefficients so a
//     kernel hoists everything with one pointer.
//
// The padding floats are zero and never read: kernels index rows by
// RowShift and touch only the first len(Terms) entries of a row.
type Prepared struct {
	// Coeffs holds 2^N rows of 2^RowShift float64s, base 64-byte
	// aligned.
	Coeffs []float64
	// RowShift is log2 of the padded row width.
	RowShift uint
	// Shift/Mask/MinBits/MaxBits mirror the Table's sub-domain keying:
	// idx = ((clamp(magbits) >> Shift) & Mask) << RowShift.
	Shift            uint
	Mask             uint64
	MinBits, MaxBits uint64
}

// Align64 re-slices buf so element 0 sits on a 64-byte boundary. buf
// must carry at least 7 floats of slack past the length the caller
// intends to use.
func Align64(buf []float64) []float64 {
	off := 0
	if rem := uintptr(unsafe.Pointer(&buf[0])) & 63; rem != 0 {
		off = int((64 - rem) / 8)
	}
	return buf[off:]
}

// Prepare builds the padded, cache-line-aligned evaluation layout.
// The coefficient values are copied bit-for-bit; only their placement
// changes, so any evaluation reading them computes exactly what it
// would from Table.Coeffs.
func (t *Table) Prepare() *Prepared {
	nt := len(t.Terms)
	rowShift := uint(0)
	for 1<<rowShift < nt {
		rowShift++
	}
	rows := 1 << t.N
	roww := 1 << rowShift
	// Allocate 7 spare floats so a 64-byte-aligned base always exists.
	buf := make([]float64, rows*roww+7)
	co := Align64(buf)[: rows*roww : rows*roww]
	for i := 0; i < rows; i++ {
		copy(co[i*roww:i*roww+nt], t.Coeffs[i*nt:(i+1)*nt])
	}
	return &Prepared{
		Coeffs:   co,
		RowShift: rowShift,
		Shift:    t.Shift,
		Mask:     1<<t.N - 1,
		MinBits:  t.MinBits,
		MaxBits:  t.MaxBits,
	}
}

// The generated polynomials come in exactly two arithmetic cores: a
// three-coefficient quadratic Q(y) = c0 + c1·y + c2·y² (the NoConst,
// Odd and Even kinds evaluate Q at y = x or y = x² and multiply by x
// as needed) and a five-coefficient dense quartic (the exponential
// families). The batch kernels call these forms on coefficients they
// hoisted themselves; each repeats, token for token, the Horner
// sequence EvalPoly runs and the generator validated, so the kernels'
// results are bit-identical to the scalar library by construction.

// QuadExact evaluates c0 + c1·y + c2·y² with the validated Horner
// sequence: (c2·y + c1)·y + c0.
func QuadExact(c0, c1, c2, y float64) float64 {
	return (c2*y+c1)*y + c0
}

// Dense5Exact evaluates the dense quartic with the validated Horner
// sequence.
func Dense5Exact(c0, c1, c2, c3, c4, r float64) float64 {
	return (((c4*r+c3)*r+c2)*r+c1)*r + c0
}
