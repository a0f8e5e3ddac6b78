package vec

import (
	"fmt"
	"math"
)

// This file implements SQ8: symmetric per-row scalar quantization of
// float32 vectors to int8. Its serving role is the spill format — key rows
// under Config.QuantKeys are snapped to the grid (SnapRow) and written to
// disk as packed codes (PackRow) — plus the fused int8 scoring kernels that
// the ε-widened flat band and the benchmark probes still run.
//
// Layout and convention. A QuantMatrix mirrors a Matrix row for row: row i
// holds int8 codes c and one float32 scale s with dequantized value s·c —
// symmetric quantization, no zero-point, so an inner product against a
// quantized query (codes cq, scale sq) reduces to one int32 dot of the code
// vectors and a single dequantizing multiply:
//
//	q·k ≈ (sq·sk) · Σ cq_i·ck_i
//
// The kernels accumulate the code dot in int32 (exact: |c| ≤ 127, so even
// 2^14-dim rows stay far below 2^31) and perform exactly one float multiply
// per row. They walk storage in the same 4-row blocks as the fp32 kernels
// in batch.go.
//
// Error accounting. A DIPR scan over the quantized plane widens β by the
// scoring error bound and reranks survivors in fp32 (flat.MakeQuant). The
// bound kept here is against the *dequantized* plane: scoring a quantized
// query against row k errs by at most
//
//	|ŝ − q·(sk·ck)| ≤ (sq/2) · ‖sk·ck‖₁
//
// because each query component errs by at most sq/2 (round-to-nearest) and
// the key side of the product is exact. QuantMatrix maintains per-row L1
// norms of the dequantized rows and their running maximum, so the bound is
// O(1) per query (DotErrBound) or per row (ErrBoundRow).
const qMax = 127 // symmetric int8 code range [-qMax, qMax]

// errSafety inflates analytic error bounds by a hair to absorb the float32
// rounding of the dequantizing multiplies themselves.
const errSafety = 1 + 1e-5

// QuantMatrix is the SQ8 shadow of a row-major float32 matrix: per row, the
// int8 codes, the dequantization scale, and the L1 norm of the dequantized
// row (the error-bound ingredient). The zero value is an empty matrix ready
// for Append, which fixes the column count like Matrix.Append does.
type QuantMatrix struct {
	cols     int
	codes    []int8
	scales   []float32
	l1       []float32
	maxScale float32
	maxL1    float32
}

// NewQuantMatrix returns an empty quantized matrix with a fixed width.
func NewQuantMatrix(cols int) *QuantMatrix {
	if cols <= 0 {
		panic(fmt.Sprintf("vec: invalid quant matrix width %d", cols))
	}
	return &QuantMatrix{cols: cols}
}

// QuantizeMatrix quantizes every row of m into a fresh QuantMatrix: the
// codes kvcache.QuantKeys hands the spill writer and benchmark/probes.go
// scores against.
func QuantizeMatrix(m *Matrix) *QuantMatrix {
	qm := NewQuantMatrix(m.Cols())
	for i := 0; i < m.Rows(); i++ {
		qm.Append(m.Row(i))
	}
	return qm
}

// Rows returns the number of quantized rows.
func (qm *QuantMatrix) Rows() int {
	if qm.cols == 0 {
		return 0
	}
	return len(qm.codes) / qm.cols
}

// Cols returns the row width.
func (qm *QuantMatrix) Cols() int { return qm.cols }

// rowScale returns v's symmetric SQ8 scale: max|v_i|/qMax, or 0 for a zero
// row.
func rowScale(v []float32) float32 {
	var maxAbs float32
	for _, x := range v {
		if a := float32(math.Abs(float64(x))); a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbs / qMax
}

// quantCode returns x's round-to-nearest code at scale, clamped to
// [-qMax, qMax]; every code of a zero-scale row is 0.
func quantCode(x, scale float32) int32 {
	if scale == 0 {
		return 0
	}
	c := int32(math.Round(float64(x / scale)))
	if c > qMax {
		c = qMax
	} else if c < -qMax {
		c = -qMax
	}
	return c
}

// quantizeRow writes round-to-nearest symmetric codes of v into dst and
// returns the scale and the L1 norm of the dequantized row. A zero row gets
// scale 0 and all-zero codes.
func quantizeRow(dst []int8, v []float32) (scale, l1 float32) {
	scale = rowScale(v)
	var absSum int32
	for i, x := range v {
		c := quantCode(x, scale)
		dst[i] = int8(c)
		if c < 0 {
			absSum -= c
		} else {
			absSum += c
		}
	}
	return scale, scale * float32(absSum)
}

// SnapRow moves v in place onto its SQ8 grid: each component becomes
// scale·code, bit for bit what quantizing v and dequantizing the row
// writes. A snapped row is a fixed point of quantization: quantizing it
// again yields the same codes and scale.
func SnapRow(v []float32) {
	scale := rowScale(v)
	for i, x := range v {
		v[i] = scale * float32(quantCode(x, scale))
	}
}

// DequantizeCodes writes scale·code for each code into out, which must have
// len(codes) entries.
func DequantizeCodes(codes []int8, scale float32, out []float32) {
	if len(out) != len(codes) {
		panic(fmt.Sprintf("vec: dequantize %d codes into %d-buffer", len(codes), len(out)))
	}
	for j, c := range codes {
		out[j] = scale * float32(c)
	}
}

// Append quantizes v as a new row and returns its index. On the zero value
// the first Append fixes the column count.
func (qm *QuantMatrix) Append(v []float32) int {
	if qm.cols == 0 {
		qm.cols = len(v)
	}
	if len(v) != qm.cols {
		panic(fmt.Sprintf("vec: quant append of %d-vector to %d-column matrix", len(v), qm.cols))
	}
	n := len(qm.codes)
	qm.codes = append(qm.codes, make([]int8, qm.cols)...)
	scale, l1 := quantizeRow(qm.codes[n:], v)
	qm.pushRowMeta(scale, l1)
	return qm.Rows() - 1
}

// AppendCodes adopts an already-quantized row (codes plus scale) — the
// spill-reload path, where codes come back from disk bit-exact. The row's
// L1 norm is recomputed from the codes, so a round-tripped matrix is
// indistinguishable from the one that was saved.
func (qm *QuantMatrix) AppendCodes(codes []int8, scale float32) int {
	if qm.cols == 0 {
		qm.cols = len(codes)
	}
	if len(codes) != qm.cols {
		panic(fmt.Sprintf("vec: quant append of %d codes to %d-column matrix", len(codes), qm.cols))
	}
	qm.codes = append(qm.codes, codes...)
	var absSum int32
	for _, c := range codes {
		if c < 0 {
			absSum -= int32(c)
		} else {
			absSum += int32(c)
		}
	}
	qm.pushRowMeta(scale, scale*float32(absSum))
	return qm.Rows() - 1
}

func (qm *QuantMatrix) pushRowMeta(scale, l1 float32) {
	qm.scales = append(qm.scales, scale)
	qm.l1 = append(qm.l1, l1)
	if scale > qm.maxScale {
		qm.maxScale = scale
	}
	if l1 > qm.maxL1 {
		qm.maxL1 = l1
	}
}

// RowCodes returns row i's codes, aliasing matrix storage.
func (qm *QuantMatrix) RowCodes(i int) []int8 {
	off := i * qm.cols
	return qm.codes[off : off+qm.cols : off+qm.cols]
}

// Scale returns row i's dequantization scale.
func (qm *QuantMatrix) Scale(i int) float32 { return qm.scales[i] }

// DequantizeRow writes row i's dequantized values (scale · code) into out,
// which must have Cols() entries.
func (qm *QuantMatrix) DequantizeRow(i int, out []float32) {
	DequantizeCodes(qm.RowCodes(i), qm.scales[i], out)
}

// Truncate drops all rows at index >= n and recomputes the running maxima.
func (qm *QuantMatrix) Truncate(n int) {
	if n >= qm.Rows() {
		return
	}
	qm.codes = qm.codes[:n*qm.cols]
	qm.scales = qm.scales[:n]
	qm.l1 = qm.l1[:n]
	qm.maxScale, qm.maxL1 = 0, 0
	for i := 0; i < n; i++ {
		if qm.scales[i] > qm.maxScale {
			qm.maxScale = qm.scales[i]
		}
		if qm.l1[i] > qm.maxL1 {
			qm.maxL1 = qm.l1[i]
		}
	}
}

// Clone returns a deep copy.
func (qm *QuantMatrix) Clone() *QuantMatrix {
	out := &QuantMatrix{cols: qm.cols, maxScale: qm.maxScale, maxL1: qm.maxL1}
	out.codes = append([]int8(nil), qm.codes...)
	out.scales = append([]float32(nil), qm.scales...)
	out.l1 = append([]float32(nil), qm.l1...)
	return out
}

// Bytes returns the in-memory footprint of the quantized plane: one byte
// per code plus the per-row scale and L1 metadata.
func (qm *QuantMatrix) Bytes() int64 {
	return int64(len(qm.codes)) + int64(len(qm.scales))*4 + int64(len(qm.l1))*4
}

// QueryQ8 is a query vector quantized for scoring against a QuantMatrix.
// Quantize reuses the code storage, so a per-worker QueryQ8 makes repeated
// quantization allocation-free. Alongside the int8 codes it keeps an
// int16-widened copy: the SIMD inner loop (PMADDWD on amd64) consumes
// word-sized query lanes, and widening once per query is cheaper than
// widening per scored row. No serving path scores with it; it stays only
// while benchmark/probes.go times the int8 kernels.
type QueryQ8 struct {
	Codes   []int8
	Scale   float32
	widened []int16
}

// Quantize re-quantizes qq from q, reusing code storage.
func (qq *QueryQ8) Quantize(q []float32) {
	if cap(qq.Codes) < len(q) {
		qq.Codes = make([]int8, len(q))
	}
	qq.Codes = qq.Codes[:len(q)]
	qq.Scale, _ = quantizeRow(qq.Codes, q)
	if cap(qq.widened) < len(q) {
		qq.widened = make([]int16, len(q))
	}
	qq.widened = qq.widened[:len(q)]
	for i, c := range qq.Codes {
		qq.widened[i] = int16(c)
	}
}

// dotQ8WGeneric is the portable widened-query dot: the reference the amd64
// SSE2 kernel is pinned against, and the implementation on other
// architectures.
func dotQ8WGeneric(q []int16, k []int8) int32 {
	var s0, s1, s2, s3 int32
	n := len(k)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += int32(q[i]) * int32(k[i])
		s1 += int32(q[i+1]) * int32(k[i+1])
		s2 += int32(q[i+2]) * int32(k[i+2])
		s3 += int32(q[i+3]) * int32(k[i+3])
	}
	for ; i < n; i++ {
		s0 += int32(q[i]) * int32(k[i])
	}
	return s0 + s1 + s2 + s3
}

// DotErrBound returns a bound on |fused score − exact dot against the
// dequantized plane|, uniform over all rows of qm: (sq/2)·max‖row‖₁,
// slightly inflated for float rounding. This is the amount a DIPR β must
// widen (on each side) for the quantized band to cover the exact band.
func (qm *QuantMatrix) DotErrBound(qq *QueryQ8) float32 {
	return 0.5 * qq.Scale * qm.maxL1 * errSafety
}

// ErrBoundRow is DotErrBound for a single row.
func (qm *QuantMatrix) ErrBoundRow(qq *QueryQ8, i int) float32 {
	return 0.5 * qq.Scale * qm.l1[i] * errSafety
}

// PlaneErrBound bounds |q·row_snapped − q·row_original| for any row this
// matrix quantized: snapping moves each component by at most scale/2, so a
// dot against q moves by at most (maxScale/2)·‖q‖₁. This is the score
// perturbation between a quantized configuration and an fp32 one — two
// tokens whose fp32 scores are within twice this bound may legitimately
// swap ranks between the planes.
func (qm *QuantMatrix) PlaneErrBound(q []float32) float32 {
	var l1 float64
	for _, x := range q {
		l1 += math.Abs(float64(x))
	}
	return 0.5 * qm.maxScale * float32(l1) * errSafety
}

// DotBatchQ8Range computes out[i] = fused score of qq against row lo+i for
// i in [0, hi-lo), walking code storage in 4-row blocks — the SQ8 analogue
// of DotBatchRange. out must have at least hi-lo entries.
func DotBatchQ8Range(qq *QueryQ8, qm *QuantMatrix, lo, hi int, out []float32) {
	n := hi - lo
	if lo < 0 || hi < lo || hi > qm.Rows() {
		panic(fmt.Sprintf("vec: q8 batch range [%d,%d) of %d-row matrix", lo, hi, qm.Rows()))
	}
	if len(qq.Codes) != qm.cols {
		panic(fmt.Sprintf("vec: q8 batch query dim %d, matrix width %d", len(qq.Codes), qm.cols))
	}
	if len(out) < n {
		panic(fmt.Sprintf("vec: q8 batch output has %d of %d entries", len(out), n))
	}
	d := qm.cols
	span := qm.codes[lo*d : hi*d : hi*d]
	scales := qm.scales[lo:hi]
	sq := qq.Scale
	q := qq.widened
	i := 0
	for ; i+dotBlock <= n; i += dotBlock {
		off := i * d
		blk := span[off : off+dotBlock*d : off+dotBlock*d]
		out[i] = float32(dotQ8W(q, blk[:d])) * (sq * scales[i])
		out[i+1] = float32(dotQ8W(q, blk[d:2*d])) * (sq * scales[i+1])
		out[i+2] = float32(dotQ8W(q, blk[2*d:3*d])) * (sq * scales[i+2])
		out[i+3] = float32(dotQ8W(q, blk[3*d:])) * (sq * scales[i+3])
	}
	for ; i < n; i++ {
		off := i * d
		out[i] = float32(dotQ8W(q, span[off:off+d:off+d])) * (sq * scales[i])
	}
}

// DotBatchQ8 computes the fused score of qq against every row of qm. It
// stays only while benchmark/probes.go times it (vec.dotq8_gbs).
func DotBatchQ8(qq *QueryQ8, qm *QuantMatrix, out []float32) {
	DotBatchQ8Range(qq, qm, 0, qm.Rows(), out)
}

// DotGatherQ8 computes out[j] = fused score of qq against row idx[j] — the
// SQ8 analogue of DotGather. Indices must be in range; out must have at
// least len(idx) entries.
func DotGatherQ8(qq *QueryQ8, qm *QuantMatrix, idx []int, out []float32) {
	if len(qq.Codes) != qm.cols {
		panic(fmt.Sprintf("vec: q8 gather query dim %d, matrix width %d", len(qq.Codes), qm.cols))
	}
	if len(out) < len(idx) {
		panic(fmt.Sprintf("vec: q8 gather output has %d of %d entries", len(out), len(idx)))
	}
	d := qm.cols
	codes := qm.codes
	sq := qq.Scale
	q := qq.widened
	for j, i := range idx {
		off := i * d
		out[j] = float32(dotQ8W(q, codes[off:off+d:off+d])) * (sq * qm.scales[i])
	}
}

// PackedWords returns how many float32 words hold d packed codes.
func PackedWords(d int) int { return (d + 3) / 4 }

// PackRow packs row i's codes into dst, four codes per float32 word
// (little-endian byte order inside the word), padding the final word with
// zero codes. dst must have PackedWords(Cols()) entries. This is the spill
// representation: a quantized key file stores PackedWords(d) "float32"
// words per row — one quarter of the fp32 payload — through the unchanged
// vfs block format.
//
// The words are bit containers, not numbers: they round-trip through
// math.Float32bits/Float32frombits and []float32 copies only, which are
// bitwise moves in Go, so no arithmetic ever touches (or canonicalizes)
// the patterns.
func (qm *QuantMatrix) PackRow(i int, dst []float32) {
	packCodes(qm.RowCodes(i), dst)
}

func packCodes(codes []int8, dst []float32) {
	if len(dst) != PackedWords(len(codes)) {
		panic(fmt.Sprintf("vec: pack of %d codes into %d words", len(codes), len(dst)))
	}
	for w := range dst {
		var bits uint32
		base := w * 4
		for b := 0; b < 4; b++ {
			if base+b < len(codes) {
				bits |= uint32(uint8(codes[base+b])) << (8 * b)
			}
		}
		dst[w] = math.Float32frombits(bits)
	}
}

// UnpackCodes reverses PackRow: words holding PackedWords(len(dst)) packed
// entries are expanded into dst.
func UnpackCodes(words []float32, dst []int8) {
	if len(words) != PackedWords(len(dst)) {
		panic(fmt.Sprintf("vec: unpack of %d words into %d codes", len(words), len(dst)))
	}
	for w, word := range words {
		bits := math.Float32bits(word)
		base := w * 4
		for b := 0; b < 4; b++ {
			if base+b < len(dst) {
				dst[base+b] = int8(uint8(bits >> (8 * b)))
			}
		}
	}
}
