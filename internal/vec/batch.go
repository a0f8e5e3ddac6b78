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
// dot4_test.go and dot4x2_test.go would catch a toolchain that starts
// fusing.
//
// A 1–3 row tail takes one more Dot4 pass with the last real row repeated
// and the extra lanes dropped: lanes are independent, so the kept scores
// are unchanged. Several queries over the same rows (the query heads of one
// KV group) take DotBatchRangeMulti instead, whose Dot4x2 kernel
// (dot4x2_amd64.s) scores four queries against two rows per pass with one
// such accumulator per (query, row) pair, reading each row once for all
// four queries.
//
// The weighted sums (the value mix of attention) accumulate four rows per
// pass over out through axpy4, which on amd64 is one SSE pass
// (axpy4_amd64.s): the four weights are broadcast once, and each 4-float
// chunk of out is loaded once, takes MULPS then ADDPS for rows 0..3 in
// order, and is stored once. Each output element therefore sees the same
// sequence of rounded adds as an Axpy per row, which compiles to separate
// MULSS and ADDSS for the same reason Dot does; axpy4_test.go pins the
// kernel against axpy4Generic and four Axpy calls. A 1–3 row tail takes
// one Axpy per row.

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
	if i < n {
		row := func(r int) []float32 {
			off := min(r, n-1) * d
			return span[off : off+d : off+d]
		}
		var tail [4]float32
		dot4(q, row(i), row(i+1), row(i+2), row(i+3), &tail)
		copy(out[i:n], tail[:])
	}
}

// Dot4x2 sets out[r][j] = Dot(qj, rr) for the four queries q0..q3 and the
// two rows r0, r1 in one pass over the rows. Every query and row must have
// len(q0) entries; Dot4x2 panics otherwise. Results are bitwise identical
// to eight Dot calls.
func Dot4x2(q0, q1, q2, q3, r0, r1 []float32, out *[2][4]float32) {
	n := len(q0)
	if len(q1) != n || len(q2) != n || len(q3) != n || len(r0) != n || len(r1) != n {
		panic(fmt.Sprintf("vec: dot4x2 length mismatch: queries %d %d %d %d, rows %d %d",
			n, len(q1), len(q2), len(q3), len(r0), len(r1)))
	}
	dot4x2(q0, q1, q2, q3, r0, r1, out)
}

// dot4x2Generic is Dot4x2 as eight Dot calls: the portable build's kernel
// and the amd64 kernel's path for widths that are not a multiple of 4.
func dot4x2Generic(q0, q1, q2, q3, r0, r1 []float32, out *[2][4]float32) {
	for r, row := range [2][]float32{r0, r1} {
		out[r] = [4]float32{Dot(q0, row), Dot(q1, row), Dot(q2, row), Dot(q3, row)}
	}
}

// DotBatchRangeMulti computes outs[j][i] = qs[j] · m.Row(lo+i) for every
// query j and i in [0, hi-lo): DotBatchRange for a set of queries sharing
// one matrix, reading each row once per four queries instead of once per
// query. Queries go four at a time through Dot4x2 over row pairs; a last
// pass of two or three queries repeats its last query, and an odd last row
// is scored as a pair with itself, the extra outputs dropped. A single
// leftover query takes DotBatchRange, which scores it with a quarter of the
// work a padded pass would. Every score is bitwise identical to Dot.
// len(outs) must equal len(qs), each outs[j] must have at least hi-lo
// entries, and every query must match the matrix width.
func DotBatchRangeMulti(qs [][]float32, m *Matrix, lo, hi int, outs [][]float32) {
	n := hi - lo
	if lo < 0 || hi < lo || hi > m.Rows() {
		panic(fmt.Sprintf("vec: dot batch range [%d,%d) of %d-row matrix", lo, hi, m.Rows()))
	}
	if len(outs) != len(qs) {
		panic(fmt.Sprintf("vec: dot batch multi has %d outputs for %d queries", len(outs), len(qs)))
	}
	for j, q := range qs {
		if len(q) != m.cols {
			panic(fmt.Sprintf("vec: dot batch query %d dim %d, matrix width %d", j, len(q), m.cols))
		}
		if len(outs[j]) < n {
			panic(fmt.Sprintf("vec: dot batch output %d has %d of %d entries", j, len(outs[j]), n))
		}
	}
	d := m.cols
	span := m.RowSpan(lo, hi)
	for j := 0; j < len(qs); j += 4 {
		if len(qs)-j == 1 {
			DotBatchRange(qs[j], m, lo, hi, outs[j])
			break
		}
		// A padded query's scores equal its twin's bit for bit, so its
		// output row may alias the twin's.
		last := len(qs) - 1
		q0, q1, q2, q3 := qs[j], qs[min(j+1, last)], qs[min(j+2, last)], qs[min(j+3, last)]
		o0, o1, o2, o3 := outs[j][:n], outs[min(j+1, last)][:n], outs[min(j+2, last)][:n], outs[min(j+3, last)][:n]
		var pair [2][4]float32
		i := 0
		for ; i+2 <= n; i += 2 {
			off := i * d
			blk := span[off : off+2*d : off+2*d]
			dot4x2(q0, q1, q2, q3, blk[:d], blk[d:], &pair)
			o0[i], o1[i], o2[i], o3[i] = pair[0][0], pair[0][1], pair[0][2], pair[0][3]
			o0[i+1], o1[i+1], o2[i+1], o3[i+1] = pair[1][0], pair[1][1], pair[1][2], pair[1][3]
		}
		if i < n {
			row := span[i*d : i*d+d : i*d+d]
			dot4x2(q0, q1, q2, q3, row, row, &pair)
			o0[i], o1[i], o2[i], o3[i] = pair[0][0], pair[0][1], pair[0][2], pair[0][3]
		}
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
	if j < len(idx) {
		last := len(idx) - 1
		tailRow := func(k int) []float32 { return row(idx[min(k, last)]) }
		var tail [4]float32
		dot4(q, tailRow(j), tailRow(j+1), tailRow(j+2), tailRow(j+3), &tail)
		copy(out[j:len(idx)], tail[:])
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

// axpy4Generic is Axpy(w[0], r0, out) through Axpy(w[3], r3, out) in one
// pass over out, holding each out[j] in a register across the four rows.
// Every add rounds to float32 in the same order as the four calls, so the
// result is bitwise identical. It is the portable build's axpy4 and the
// amd64 kernel's path for widths that are not a multiple of 4. Every row
// must have len(out) entries.
func axpy4Generic(w *[4]float32, r0, r1, r2, r3, out []float32) {
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
