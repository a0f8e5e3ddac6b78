package vec

import "fmt"

// Matrix is a dense row-major matrix of float32. It is the storage layout for
// key and value matrices: row i is the vector of token i. The zero value is
// an empty matrix ready for Append.
type Matrix struct {
	cols int
	data []float32
}

// NewMatrix returns a rows×cols matrix backed by a single allocation.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols <= 0 {
		panic(fmt.Sprintf("vec: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{cols: cols, data: make([]float32, rows*cols)}
}

// MatrixFromData wraps an existing row-major buffer. The buffer length must
// be a multiple of cols. The matrix takes ownership of data.
func MatrixFromData(cols int, data []float32) *Matrix {
	if cols <= 0 || len(data)%cols != 0 {
		panic(fmt.Sprintf("vec: buffer of length %d is not a multiple of %d columns", len(data), cols))
	}
	return &Matrix{cols: cols, data: data}
}

// Rows returns the number of rows currently stored.
func (m *Matrix) Rows() int {
	if m.cols == 0 {
		return 0
	}
	return len(m.data) / m.cols
}

// Cols returns the number of columns (vector dimensionality).
func (m *Matrix) Cols() int { return m.cols }

// Row returns row i as a slice aliasing the matrix storage. Mutating the
// returned slice mutates the matrix.
func (m *Matrix) Row(i int) []float32 {
	off := i * m.cols
	return m.data[off : off+m.cols : off+m.cols]
}

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v []float32) {
	copy(m.Row(i), v)
}

// Append adds v as a new row, growing storage as needed, and returns the new
// row's index. On the zero value the first Append fixes the column count.
func (m *Matrix) Append(v []float32) int {
	if m.cols == 0 {
		m.cols = len(v)
	}
	if len(v) != m.cols {
		panic(fmt.Sprintf("vec: append of %d-vector to %d-column matrix", len(v), m.cols))
	}
	m.data = append(m.data, v...)
	return m.Rows() - 1
}

// AppendZero adds a zero row and returns its index, for callers that fill
// the row in place through Row. The matrix must have a column count.
func (m *Matrix) AppendZero() int {
	if m.cols == 0 {
		panic("vec: AppendZero on a matrix without a column count")
	}
	m.data = append(m.data, make([]float32, m.cols)...)
	return m.Rows() - 1
}

// Data returns the underlying row-major buffer. Callers must treat it as
// read-only unless they own the matrix.
func (m *Matrix) Data() []float32 { return m.data }

// RowSpan returns the contiguous backing floats of rows [lo, hi) — hi-lo
// rows of Cols() entries each — aliasing matrix storage. It is the accessor
// blocked scans use: one bounds check for the whole span instead of one
// slice per row.
func (m *Matrix) RowSpan(lo, hi int) []float32 {
	if lo < 0 || hi < lo || hi > m.Rows() {
		panic(fmt.Sprintf("vec: row span [%d,%d) of %d-row matrix", lo, hi, m.Rows()))
	}
	return m.data[lo*m.cols : hi*m.cols : hi*m.cols]
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{cols: m.cols, data: make([]float32, len(m.data))}
	copy(out.data, m.data)
	return out
}

// Slice returns a view of rows [lo, hi). The view shares storage with m.
func (m *Matrix) Slice(lo, hi int) *Matrix {
	if lo < 0 || hi < lo || hi > m.Rows() {
		panic(fmt.Sprintf("vec: slice [%d,%d) of %d-row matrix", lo, hi, m.Rows()))
	}
	return &Matrix{cols: m.cols, data: m.data[lo*m.cols : hi*m.cols]}
}

// Bytes returns the in-memory footprint of the matrix payload in bytes.
func (m *Matrix) Bytes() int64 { return int64(len(m.data)) * 4 }
