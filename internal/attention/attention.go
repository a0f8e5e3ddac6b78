// Package attention implements the attention computation engines of
// AlayaDB (§7.2): exact full attention, a one-pass online-softmax variant
// (the FlashAttention recurrence), partial attention over arbitrary index
// subsets with log-sum-exp bookkeeping, and the LSE-weighted merge that the
// paper's data-centric engine uses to combine partial results computed
// where the data resides (window on device, retrieved tokens on host).
//
// Every kernel comes in two forms. The allocating form (Over, Full, Merge,
// …) returns fresh slices and is safe to retain. The scratch form
// (OverScratch, FullScratch, MergeInto, …) computes into a reusable Scratch
// arena — logits, weights, and outputs live in buffers reused across calls,
// which is what makes steady-state decode allocation-free. Scratch results
// alias the arena and must not be retained past the arena's next use; see
// the Scratch type for the full retention rule.
package attention

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// Weights returns the full softmax attention distribution of q over every
// row of K: a_i = softmax(q·k_i/√d). The returned slice has K.Rows()
// entries. Allocating form of WeightsScratch.
func Weights(q []float32, K *vec.Matrix) []float32 {
	return WeightsScratch(nil, q, K)
}

// Full computes exact attention output o = Σ softmax(q·K/√d)_i · v_i using
// the two-pass formulation. K and V must have equal row counts. Allocating
// form of FullScratch.
func Full(q []float32, K, V *vec.Matrix) []float32 {
	return FullScratch(nil, q, K, V)
}

// FullOnline computes the same output as Full in a single pass using the
// online-softmax recurrence (running max, running denominator, rescaled
// accumulator) — the core loop of FlashAttention [32]. It exists both as
// the streaming engine and as a cross-check for the two-pass form.
func FullOnline(q []float32, K, V *vec.Matrix) []float32 {
	checkKV(K, V)
	n := K.Rows()
	out := make([]float32, V.Cols())
	if n == 0 {
		return out
	}
	runMax := float32(math.Inf(-1))
	var runSum float64
	for i := 0; i < n; i++ {
		z := vec.ScaledDot(q, K.Row(i))
		if z > runMax {
			scale := float32(math.Exp(float64(runMax - z)))
			if runSum != 0 {
				vec.Scale(scale, out)
			}
			runSum *= float64(scale)
			runMax = z
		}
		e := float32(math.Exp(float64(z - runMax)))
		runSum += float64(e)
		vec.Axpy(e, V.Row(i), out)
	}
	vec.Scale(float32(1/runSum), out)
	return out
}

// Partial is attention computed over a subset of the context: the
// softmax-weighted value mix *within the subset* plus the subset's
// log-sum-exp, which is exactly the state needed to merge partials into
// the attention output over the union of subsets.
type Partial struct {
	Output []float32
	LSE    float64
	// Count is the number of tokens the partial covers (bookkeeping for
	// metrics; Merge ignores it).
	Count int
}

// Over computes partial attention of q over the rows of K/V listed in idx.
// Indices may be in any order but must be in range; duplicates would be
// double-counted, so callers must pass disjoint sets to a subsequent Merge.
// Allocating form of OverScratch.
func Over(q []float32, K, V *vec.Matrix, idx []int) Partial {
	return OverScratch(nil, q, K, V, idx)
}

// OverRange computes partial attention over the contiguous rows [lo, hi).
// Allocating form of OverRangeScratch.
func OverRange(q []float32, K, V *vec.Matrix, lo, hi int) Partial {
	return OverRangeScratch(nil, q, K, V, lo, hi)
}

// OverQ8 computes partial attention with logits gathered from the SQ8 key
// plane (values stay fp32). Allocating form of OverQ8Scratch; see that
// function for the tolerance statement.
func OverQ8(q []float32, qK *vec.QuantMatrix, V *vec.Matrix, idx []int) Partial {
	return OverQ8Scratch(nil, q, qK, V, idx)
}

// Merge combines partial attention results over disjoint subsets into the
// attention output over their union, weighting each partial by
// exp(LSE_i − max LSE) — the same aggregation FlashAttention and
// RetrievalAttention use (§7.2). Empty partials (LSE = −Inf) contribute
// nothing.
func Merge(parts ...Partial) []float32 {
	if len(parts) == 0 {
		panic("attention: merge of no partials")
	}
	return MergeInto(make([]float32, len(parts[0].Output)), parts)
}

// Sparse computes attention restricted to the tokens in idx, normalized as
// if those were the whole context — the sparse-attention approximation of
// Equation (1).
func Sparse(q []float32, K, V *vec.Matrix, idx []int) []float32 {
	return Over(q, K, V, idx).Output
}

// Recovery returns the recovery ratio of the index set under the full
// attention distribution w: the fraction of total attention mass carried by
// the selected tokens (the paper's quality metric from [45], used in Fig 5).
func Recovery(w []float32, idx []int) float64 {
	var s float64
	for _, i := range idx {
		s += float64(w[i])
	}
	return s
}

// TokensForRecovery returns the minimum number of tokens needed to reach
// the target recovery ratio, choosing tokens greedily by weight. It is the
// quantity plotted on Figure 5's red curve.
func TokensForRecovery(w []float32, target float64) int {
	return TokensForRecoveryScratch(nil, w, target)
}

func sortDescending(s []float32) {
	// Heapsort keeps this dependency-free and O(n log n) without recursion.
	n := len(s)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(s, i, n)
	}
	for i := n - 1; i > 0; i-- {
		s[0], s[i] = s[i], s[0]
		siftDown(s, 0, i)
	}
	// Heapsort yields ascending order; reverse for descending.
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

func siftDown(s []float32, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && s[child+1] > s[child] {
			child++
		}
		if s[root] >= s[child] {
			return
		}
		s[root], s[child] = s[child], s[root]
		root = child
	}
}

func checkKV(K, V *vec.Matrix) {
	if K.Rows() != V.Rows() {
		panic(fmt.Sprintf("attention: K has %d rows, V has %d", K.Rows(), V.Rows()))
	}
}
