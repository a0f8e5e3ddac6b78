package vec

import "fmt"

// This file holds the blocked batch kernels of the zero-allocation decode
// path: scoring a query against many matrix rows at once, and accumulating
// weighted row sums, all into caller-provided buffers. The range kernels
// take the whole span through Matrix.RowSpan — one bounds check per range —
// and walk it in row blocks; none of them allocate.
//
// Every kernel is bitwise-identical to the per-row formulation it replaces
// (Dot per Row, Axpy per Row): blocks change how storage is addressed, not
// the floating-point accumulation order, so callers may mix blocked and
// per-row paths freely without results diverging.
//
// The dot kernels score rows four at a time through Dot4, which on amd64 is
// one SSE pass (dot4_amd64.s) keeping Dot's four scalar accumulators as the
// lanes of one vector accumulator per row. Dot compiles to separate MULSS
// and ADDSS there (the Go compiler does not fuse float multiply-add on
// amd64 under the default GOAMD64=v1), and the kernel uses MULPS then ADDPS
// in the same order, so the two agree bit for bit; the pin tests in
// dot4_test.go would catch a toolchain that starts fusing.
//
// The weighted sums accumulate four rows per pass over out (axpy4), in
// row order, so each output element sees the same sequence of rounded adds
// as an Axpy per row.

// dotBlock is the number of rows scored per backing-array block.
const dotBlock = 4

// Dot4 sets out[j] = Dot(q, rj) for the four rows r0..r3 in one pass over
// q. Every row must have len(q) entries; Dot4 panics otherwise. Results are
// bitwise identical to four Dot calls, so callers may score any row set
// four at a time without changing a single score.
func Dot4(q, r0, r1, r2, r3 []float32, out *[4]float32) {
	n := len(q)
	if len(r0) != n || len(r1) != n || len(r2) != n || len(r3) != n {
		panic(fmt.Sprintf("vec: dot4 length mismatch: query %d, rows %d %d %d %d",
			n, len(r0), len(r1), len(r2), len(r3)))
	}
	dot4(q, r0, r1, r2, r3, out)
}

// dot4Generic is Dot4 as four Dot calls: the portable build's kernel and
// the amd64 kernel's path for widths that are not a multiple of 4.
func dot4Generic(q, r0, r1, r2, r3 []float32, out *[4]float32) {
	out[0] = Dot(q, r0)
	out[1] = Dot(q, r1)
	out[2] = Dot(q, r2)
	out[3] = Dot(q, r3)
}

// DotBatchRange computes out[i] = q · m.Row(lo+i) for i in [0, hi-lo),
// walking the backing array in 4-row blocks, one Dot4 pass each. out must
// have at least hi-lo entries; q must match the matrix width.
func DotBatchRange(q []float32, m *Matrix, lo, hi int, out []float32) {
	n := hi - lo
	if lo < 0 || hi < lo || hi > m.Rows() {
		panic(fmt.Sprintf("vec: dot batch range [%d,%d) of %d-row matrix", lo, hi, m.Rows()))
	}
	if len(q) != m.cols {
		panic(fmt.Sprintf("vec: dot batch query dim %d, matrix width %d", len(q), m.cols))
	}
	if len(out) < n {
		panic(fmt.Sprintf("vec: dot batch output has %d of %d entries", len(out), n))
	}
	d := m.cols
	span := m.RowSpan(lo, hi)
	i := 0
	for ; i+dotBlock <= n; i += dotBlock {
		off := i * d
		blk := span[off : off+dotBlock*d : off+dotBlock*d]
		dot4(q, blk[:d], blk[d:2*d], blk[2*d:3*d], blk[3*d:], (*[4]float32)(out[i:i+4]))
	}
	for ; i < n; i++ {
		off := i * d
		out[i] = Dot(q, span[off:off+d:off+d])
	}
}

// DotBatch computes out[i] = q · m.Row(i) for every row of m (q·Mᵀ). out
// must have at least m.Rows() entries.
func DotBatch(q []float32, m *Matrix, out []float32) {
	DotBatchRange(q, m, 0, m.Rows(), out)
}

// DotGather computes out[j] = q · m.Row(idx[j]) for every listed row,
// gathering four rows per Dot4 pass. It slices the backing array directly
// and performs no allocation. Indices must be in range; out must have at
// least len(idx) entries.
func DotGather(q []float32, m *Matrix, idx []int, out []float32) {
	if len(q) != m.cols {
		panic(fmt.Sprintf("vec: dot gather query dim %d, matrix width %d", len(q), m.cols))
	}
	if len(out) < len(idx) {
		panic(fmt.Sprintf("vec: dot gather output has %d of %d entries", len(out), len(idx)))
	}
	d := m.cols
	data := m.data
	row := func(i int) []float32 { return data[i*d : i*d+d : i*d+d] }
	j := 0
	for ; j+dotBlock <= len(idx); j += dotBlock {
		dot4(q, row(idx[j]), row(idx[j+1]), row(idx[j+2]), row(idx[j+3]), (*[4]float32)(out[j:j+4]))
	}
	for ; j < len(idx); j++ {
		out[j] = Dot(q, row(idx[j]))
	}
}

// WeightedSumRange accumulates out += Σ_i w[i] · m.Row(lo+i), the value mix
// of partial attention over a contiguous row range. len(w) must be hi-lo and
// len(out) must equal the matrix width. Accumulation order matches an Axpy
// per row in ascending order.
func WeightedSumRange(w []float32, m *Matrix, lo, hi int, out []float32) {
	if lo < 0 || hi < lo || hi > m.Rows() {
		panic(fmt.Sprintf("vec: weighted sum range [%d,%d) of %d-row matrix", lo, hi, m.Rows()))
	}
	if len(w) < hi-lo {
		panic(fmt.Sprintf("vec: weighted sum has %d weights for %d rows", len(w), hi-lo))
	}
	if len(out) != m.cols {
		panic(fmt.Sprintf("vec: weighted sum output dim %d, matrix width %d", len(out), m.cols))
	}
	d := m.cols
	span := m.RowSpan(lo, hi)
	i := 0
	for ; i+dotBlock <= hi-lo; i += dotBlock {
		off := i * d
		blk := span[off : off+dotBlock*d : off+dotBlock*d]
		axpy4((*[4]float32)(w[i:i+4]), blk[:d], blk[d:2*d], blk[2*d:3*d], blk[3*d:], out)
	}
	for ; i < hi-lo; i++ {
		off := i * d
		Axpy(w[i], span[off:off+d:off+d], out)
	}
}

// axpy4 is Axpy(w[0], r0, out) through Axpy(w[3], r3, out) in one pass over
// out, holding each out[j] in a register across the four rows. Every add
// rounds to float32 in the same order as the four calls, so the result is
// bitwise identical. Every row must have len(out) entries.
func axpy4(w *[4]float32, r0, r1, r2, r3, out []float32) {
	n := len(out)
	r0, r1, r2, r3 = r0[:n], r1[:n], r2[:n], r3[:n]
	w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
	for j := range out {
		o := out[j]
		o += w0 * r0[j]
		o += w1 * r1[j]
		o += w2 * r2[j]
		o += w3 * r3[j]
		out[j] = o
	}
}

// WeightedSumGather accumulates out += Σ_j w[j] · m.Row(idx[j]) over listed
// rows, in index order. len(w) must be at least len(idx); len(out) must
// equal the matrix width.
func WeightedSumGather(w []float32, m *Matrix, idx []int, out []float32) {
	if len(w) < len(idx) {
		panic(fmt.Sprintf("vec: weighted sum has %d weights for %d rows", len(w), len(idx)))
	}
	if len(out) != m.cols {
		panic(fmt.Sprintf("vec: weighted sum output dim %d, matrix width %d", len(out), m.cols))
	}
	d := m.cols
	data := m.data
	row := func(i int) []float32 { return data[i*d : i*d+d : i*d+d] }
	j := 0
	for ; j+dotBlock <= len(idx); j += dotBlock {
		axpy4((*[4]float32)(w[j:j+4]), row(idx[j]), row(idx[j+1]), row(idx[j+2]), row(idx[j+3]), out)
	}
	for ; j < len(idx); j++ {
		Axpy(w[j], row(idx[j]), out)
	}
}
