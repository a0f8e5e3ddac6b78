// Package vec provides the float32 vector and matrix kernels used throughout
// AlayaDB: inner products, numerically stable softmax, log-sum-exp merging,
// and a compact row-major matrix type.
//
// All kernels operate on []float32 because KV-cache entries are half/bfloat16
// on real hardware; float32 is the closest stdlib-representable width and
// keeps memory pressure comparable. Hot loops are written in Go, 4-way
// unrolled. Four inner loops are amd64 assembly using only baseline
// SSE/SSE2, each with a pure-Go build for other architectures: Dot4, which
// scores one query against four rows (dot4_amd64.s); Dot4x2, which scores
// four queries against two rows (dot4x2_amd64.s) so the query heads of one
// KV group share a pass over its keys; axpy4, which accumulates four
// weighted value rows in one pass over the output (axpy4_amd64.s), the
// value mix under WeightedSumRange and WeightedSumGather; and the SQ8 code
// dot (dotq8_amd64.s).
//
// Two calling conventions coexist. The per-row kernels (Dot, Axpy, Softmax)
// take plain slices. The batch kernels in batch.go (Dot4, DotBatch,
// DotGather, WeightedSumRange, …) score or accumulate over many matrix rows
// at once, writing into caller-provided buffers: they walk the matrix
// backing array in row blocks and never allocate, which is what keeps the
// steady-state decode path garbage-free. Batch results are bitwise-identical
// to the per-row loops they replace — Dot4 and Dot4x2 included, whose vector
// lanes are Dot's four scalar accumulators, and axpy4, whose lanes are four
// output elements each taking Axpy's rounded adds in row order (see
// batch.go).
package vec

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. The two slices must have equal
// length; Dot panics otherwise, as a length mismatch is always a programming
// error in this codebase (dimensions are fixed per model configuration).
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dot length mismatch %d != %d", len(a), len(b)))
	}
	var s0, s1, s2, s3 float32
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return s0 + s1 + s2 + s3
}

// ScaledDot returns Dot(a, b) / sqrt(len(a)), the attention logit
// z = q·kᵀ/√d from Equation (1) of the paper.
func ScaledDot(a, b []float32) float32 {
	return Dot(a, b) / float32(math.Sqrt(float64(len(a))))
}

// Axpy computes y[i] += alpha * x[i] for all i.
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vec: axpy length mismatch %d != %d", len(x), len(y)))
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// Add computes y[i] += x[i].
func Add(x, y []float32) { Axpy(1, x, y) }

// Zero sets every element of x to zero.
func Zero(x []float32) {
	for i := range x {
		x[i] = 0
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float32) float32 {
	return float32(math.Sqrt(float64(Dot(x, x))))
}

// Max returns the maximum element of x and its index. It panics on an empty
// slice.
func Max(x []float32) (float32, int) {
	if len(x) == 0 {
		panic("vec: max of empty slice")
	}
	best, at := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, at = v, i+1
		}
	}
	return best, at
}

// Argmax returns the index of the maximum element of x.
func Argmax(x []float32) int {
	_, at := Max(x)
	return at
}

// Softmax writes the softmax of logits into out (which may alias logits).
// It subtracts the running maximum before exponentiating, so it is stable
// for logits of any magnitude. It returns the log-sum-exp of the input,
// which callers use to merge partial attention results.
func Softmax(logits, out []float32) float64 {
	if len(logits) != len(out) {
		panic(fmt.Sprintf("vec: softmax length mismatch %d != %d", len(logits), len(out)))
	}
	if len(logits) == 0 {
		return math.Inf(-1)
	}
	m, _ := Max(logits)
	var sum float64
	for i, z := range logits {
		e := math.Exp(float64(z - m))
		out[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range out {
		out[i] *= inv
	}
	return float64(m) + math.Log(sum)
}

// LogSumExp returns log(Σ exp(x_i)) computed stably. It returns -Inf for an
// empty input.
func LogSumExp(x []float32) float64 {
	if len(x) == 0 {
		return math.Inf(-1)
	}
	m, _ := Max(x)
	var sum float64
	for _, v := range x {
		sum += math.Exp(float64(v - m))
	}
	return float64(m) + math.Log(sum)
}

// CosineSimilarity returns the cosine of the angle between a and b, or 0 if
// either vector is zero.
func CosineSimilarity(a, b []float32) float32 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// L2Distance returns the Euclidean distance between a and b.
func L2Distance(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: l2 length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		d := float64(a[i] - b[i])
		s += d * d
	}
	return float32(math.Sqrt(s))
}

// Clone returns a fresh copy of x.
func Clone(x []float32) []float32 {
	out := make([]float32, len(x))
	copy(out, x)
	return out
}
