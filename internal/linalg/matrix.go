package linalg

import "fmt"

// Matrix is a dense row-major collection of float32 vectors stored in one
// contiguous arena: row i occupies Data()[i*stride : i*stride+dim]. It is
// the cache-friendly replacement for [][]float32 throughout the engine —
// one allocation, no per-row pointer chase, and contiguous row ranges that
// the blocked kernels (DistanceBlock and the multi-query forms) can
// stream over.
//
// A Matrix may be a *view*: Slice shares the arena of its parent, and
// SubspaceView additionally narrows the columns (stride > dim). Views are
// cheap and copy nothing; mutating a view mutates its parent. Packed
// reports whether rows are contiguous (stride == dim), which the blocked
// kernels require.
type Matrix struct {
	data   []float32
	dim    int
	stride int
	rows   int
}

// NewMatrix returns an empty, appendable matrix for vectors of the given
// dimension, with capacity pre-allocated for capRows rows.
func NewMatrix(dim, capRows int) *Matrix {
	if dim <= 0 {
		panic(fmt.Sprintf("linalg: Matrix dimension must be positive, got %d", dim))
	}
	if capRows < 0 {
		capRows = 0
	}
	return &Matrix{data: make([]float32, 0, dim*capRows), dim: dim, stride: dim}
}

// MatrixFromRows copies the given rows into a fresh packed matrix. All rows
// must share the same length; it panics on ragged input or no rows.
func MatrixFromRows(rows [][]float32) *Matrix {
	if len(rows) == 0 {
		panic("linalg: MatrixFromRows of empty set")
	}
	m := NewMatrix(len(rows[0]), len(rows))
	for _, r := range rows {
		m.AppendRow(r)
	}
	return m
}

// Rows reports the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Dim reports the per-row dimension.
func (m *Matrix) Dim() int { return m.dim }

// Packed reports whether rows are contiguous (stride == dim), the layout
// the blocked kernels require.
func (m *Matrix) Packed() bool { return m.stride == m.dim }

// Row returns row i as a subslice of the arena. The slice aliases the
// matrix: writes to it write the matrix.
func (m *Matrix) Row(i int) []float32 {
	lo := i * m.stride
	return m.data[lo : lo+m.dim : lo+m.dim]
}

// Data returns the packed arena, exactly Rows()*Dim() long, for use with
// the blocked kernels. It panics on a non-packed view.
func (m *Matrix) Data() []float32 {
	if !m.Packed() {
		panic("linalg: Data on a non-packed matrix view")
	}
	return m.data[:m.rows*m.dim]
}

// AppendRow copies v into a new final row. It panics when v has the wrong
// dimension or the matrix is a non-packed view (whose arena it would tear).
func (m *Matrix) AppendRow(v []float32) {
	if len(v) != m.dim {
		panic(fmt.Sprintf("linalg: AppendRow dim %d, want %d", len(v), m.dim))
	}
	if !m.Packed() {
		panic("linalg: AppendRow on a non-packed matrix view")
	}
	m.data = append(m.data[:m.rows*m.dim], v...)
	m.rows++
}

// Slice returns a view of rows [lo, hi) sharing this matrix's arena. The
// view's capacity is clipped to its own rows, so an append through it can
// never overwrite the parent.
func (m *Matrix) Slice(lo, hi int) *Matrix {
	if lo < 0 || hi < lo || hi > m.rows {
		panic(fmt.Sprintf("linalg: Slice[%d:%d] of %d rows", lo, hi, m.rows))
	}
	rows := hi - lo
	start := lo * m.stride
	end := start
	if rows > 0 {
		end = start + (rows-1)*m.stride + m.dim
	}
	return &Matrix{data: m.data[start:end:end], dim: m.dim, stride: m.stride, rows: rows}
}

// SubspaceView returns a view of columns [lo, hi) of every row: same row
// count, dimension hi-lo, stride of the parent. The product-quantization
// trainer clusters each subspace through such views without copying.
func (m *Matrix) SubspaceView(lo, hi int) *Matrix {
	if lo < 0 || hi < lo || hi > m.dim {
		panic(fmt.Sprintf("linalg: SubspaceView[%d:%d] of dim %d", lo, hi, m.dim))
	}
	return &Matrix{data: m.data[lo:], dim: hi - lo, stride: m.stride, rows: m.rows}
}

// SwapRows exchanges rows i and j element-wise.
func (m *Matrix) SwapRows(i, j int) {
	if i == j {
		return
	}
	a, b := m.Row(i), m.Row(j)
	for x := range a {
		a[x], b[x] = b[x], a[x]
	}
}

// CopyRow overwrites row dst with row src.
func (m *Matrix) CopyRow(dst, src int) {
	if dst == src {
		return
	}
	copy(m.Row(dst), m.Row(src))
}

// Truncate shrinks the matrix to its first n rows, keeping capacity.
func (m *Matrix) Truncate(n int) {
	if n < 0 || n > m.rows {
		panic(fmt.Sprintf("linalg: Truncate(%d) of %d rows", n, m.rows))
	}
	m.rows = n
}

// Bytes reports the arena size of the held rows.
func (m *Matrix) Bytes() int64 { return int64(m.rows) * int64(m.dim) * 4 }
