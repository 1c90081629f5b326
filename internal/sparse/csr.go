package sparse

import "fmt"

// CSR is a compressed-sparse-row matrix with NRows rows and NCols columns.
// Row r occupies positions [RowPtr[r], RowPtr[r+1]) of ColIdx/Val, with
// strictly increasing column indices inside each row. It is the storage
// format for every dataset shard: one row per training sample, one column
// per feature.
type CSR struct {
	NRows, NCols int
	RowPtr       []int64
	ColIdx       []int32
	Val          []float64
}

// NewCSR returns an empty matrix with the given shape and nonzero capacity.
func NewCSR(rows, cols, nnz int) *CSR {
	return &CSR{
		NRows:  rows,
		NCols:  cols,
		RowPtr: append(make([]int64, 0, rows+1), 0),
		ColIdx: make([]int32, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
}

// AppendRow adds one row given parallel column/value slices with strictly
// increasing columns. The slices are copied. It panics if called after
// NRows rows have already been appended when the matrix was built with
// NewCSR; rows beyond the initial capacity grow NRows.
func (m *CSR) AppendRow(cols []int32, vals []float64) {
	if len(cols) != len(vals) {
		panic("sparse: AppendRow cols/vals length mismatch")
	}
	prev := int32(-1)
	for _, c := range cols {
		if c <= prev {
			panic("sparse: AppendRow columns must be strictly increasing")
		}
		if int(c) >= m.NCols {
			panic("sparse: AppendRow column out of range")
		}
		prev = c
	}
	m.ColIdx = append(m.ColIdx, cols...)
	m.Val = append(m.Val, vals...)
	m.RowPtr = append(m.RowPtr, int64(len(m.ColIdx)))
	if len(m.RowPtr)-1 > m.NRows {
		m.NRows = len(m.RowPtr) - 1
	}
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// Check validates structural invariants.
func (m *CSR) Check() error {
	if len(m.RowPtr) != m.NRows+1 {
		return fmt.Errorf("sparse: RowPtr length %d != NRows+1 (%d)", len(m.RowPtr), m.NRows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	if m.RowPtr[m.NRows] != int64(len(m.ColIdx)) {
		return fmt.Errorf("sparse: RowPtr end %d != nnz %d", m.RowPtr[m.NRows], len(m.ColIdx))
	}
	if len(m.ColIdx) != len(m.Val) {
		return fmt.Errorf("sparse: ColIdx/Val length mismatch")
	}
	for r := 0; r < m.NRows; r++ {
		if m.RowPtr[r] > m.RowPtr[r+1] {
			return fmt.Errorf("sparse: RowPtr decreasing at row %d", r)
		}
		prev := int32(-1)
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			c := m.ColIdx[k]
			if c <= prev {
				return fmt.Errorf("sparse: row %d columns not strictly increasing", r)
			}
			if int(c) >= m.NCols {
				return fmt.Errorf("sparse: row %d column %d out of range", r, c)
			}
			prev = c
		}
	}
	return nil
}

// Row returns the column indices and values of row r as sub-slices of the
// matrix storage (do not modify).
func (m *CSR) Row(r int) ([]int32, []float64) {
	lo, hi := m.RowPtr[r], m.RowPtr[r+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// RowNNZ returns the nonzero count of row r.
func (m *CSR) RowNNZ(r int) int { return int(m.RowPtr[r+1] - m.RowPtr[r]) }

// RowDot returns <row r, x> for dense x of length NCols.
func (m *CSR) RowDot(r int, x []float64) float64 {
	cols, vals := m.Row(r)
	vals = vals[:len(cols)]
	var s float64
	for k, c := range cols {
		s += vals[k] * x[c]
	}
	return s
}

// MulVec computes dst = A·x, where x has length NCols and dst length NRows.
func (m *CSR) MulVec(dst, x []float64) {
	if len(x) != m.NCols || len(dst) != m.NRows {
		panic("sparse: MulVec dimension mismatch")
	}
	for r := 0; r < m.NRows; r++ {
		cols, vals := m.Row(r)
		vals = vals[:len(cols)]
		var s float64
		for k, c := range cols {
			s += vals[k] * x[c]
		}
		dst[r] = s
	}
}

// MulTransVec computes dst = Aᵀ·y, where y has length NRows and dst length
// NCols. dst is overwritten.
func (m *CSR) MulTransVec(dst, y []float64) {
	if len(y) != m.NRows || len(dst) != m.NCols {
		panic("sparse: MulTransVec dimension mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	for r := 0; r < m.NRows; r++ {
		yr := y[r]
		if yr == 0 {
			continue
		}
		cols, vals := m.Row(r)
		vals = vals[:len(cols)]
		for k, c := range cols {
			dst[c] += vals[k] * yr
		}
	}
}

// MulATDAVec computes dst = Aᵀ·diag(d)·A·x in one pass over the rows,
// where x and dst have length NCols and d, when non-nil, length NRows; a
// nil d is the identity. It is bit-identical to MulVec, an elementwise
// scale by d, then MulTransVec: each row's dot product accumulates in the
// same order, is scaled by d[r], is skipped when the product is exactly
// zero, and is scattered in row order. Fusing the passes drops the
// row-length intermediate the three-call form writes and re-reads.
//
// Like MulVec and MulTransVec, the loops run over the row's own column and
// value slices: indexing through m inside the loop makes the compiler
// reload the slice headers after every store to dst and bounds-check
// every access.
func (m *CSR) MulATDAVec(dst, x, d []float64) {
	if len(x) != m.NCols || len(dst) != m.NCols || (d != nil && len(d) != m.NRows) {
		panic("sparse: MulATDAVec dimension mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	for r := 0; r < m.NRows; r++ {
		cols, vals := m.Row(r)
		vals = vals[:len(cols)]
		var s float64
		for k, c := range cols {
			s += vals[k] * x[c]
		}
		if d != nil {
			s *= d[r]
		}
		if s == 0 {
			continue
		}
		for k, c := range cols {
			dst[c] += vals[k] * s
		}
	}
}

// CompactColumns restricts m to the columns it touches: it returns those
// columns' original ids in increasing order and a matrix whose column k is
// original column active[k]. The result shares RowPtr and Val with m.
func (m *CSR) CompactColumns() (c *CSR, active []int32) {
	remap := make([]int32, m.NCols)
	for _, col := range m.ColIdx {
		remap[col] = 1
	}
	for col, used := range remap {
		if used != 0 {
			remap[col] = int32(len(active))
			active = append(active, int32(col))
		}
	}
	c = &CSR{
		NRows:  m.NRows,
		NCols:  len(active),
		RowPtr: m.RowPtr,
		ColIdx: make([]int32, len(m.ColIdx)),
		Val:    m.Val,
	}
	for k, col := range m.ColIdx {
		c.ColIdx[k] = remap[col]
	}
	return c, active
}

// AddScaledRow accumulates alpha * row r into dense dst (length NCols).
func (m *CSR) AddScaledRow(dst []float64, r int, alpha float64) {
	for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
		dst[m.ColIdx[k]] += alpha * m.Val[k]
	}
}

// RowSlice returns a new CSR holding rows [lo, hi) of m; storage is copied
// so shards can outlive the parent. Column dimension is preserved.
func (m *CSR) RowSlice(lo, hi int) *CSR {
	if lo < 0 || hi < lo || hi > m.NRows {
		panic("sparse: RowSlice bounds out of range")
	}
	start, end := m.RowPtr[lo], m.RowPtr[hi]
	out := &CSR{
		NRows:  hi - lo,
		NCols:  m.NCols,
		RowPtr: make([]int64, hi-lo+1),
		ColIdx: make([]int32, end-start),
		Val:    make([]float64, end-start),
	}
	for r := lo; r <= hi; r++ {
		out.RowPtr[r-lo] = m.RowPtr[r] - start
	}
	copy(out.ColIdx, m.ColIdx[start:end])
	copy(out.Val, m.Val[start:end])
	return out
}

// ColumnDensity returns, for each of p contiguous column blocks, the number
// of stored nonzeros whose column falls in that block. The cost analyses of
// the sparse collectives (eqs. 11–16 of the paper) are parameterized by
// exactly this distribution.
func (m *CSR) ColumnDensity(p int) []int {
	counts := make([]int, p)
	base := m.NCols / p
	rem := m.NCols % p
	big := rem * (base + 1)
	for _, c := range m.ColIdx {
		ci := int(c)
		var b int
		if ci < big {
			b = ci / (base + 1)
		} else if base > 0 {
			b = rem + (ci-big)/base
		}
		counts[b]++
	}
	return counts
}
