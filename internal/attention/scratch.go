package attention

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// Scratch is the reusable working set of one attention computation: logit,
// weight, and output buffers that would otherwise be allocated per call. A
// decode step reuses one Scratch per concurrent worker across every token,
// which is what makes steady-state decode allocation-free.
//
// Retention rule: results produced through a Scratch (Partial.Output, the
// slices returned by the *Scratch functions) alias the arena and are valid
// only until the next call that uses the same Scratch. Callers that need a
// result to outlive the arena must copy it out. A Scratch is not safe for
// concurrent use; give each goroutine its own (sync.Pool them at the serve
// layer).
//
// The zero value is ready to use. A nil *Scratch is also legal everywhere a
// Scratch is accepted and simply allocates fresh buffers per call — the
// allocating compatibility functions (Over, Full, Weights, …) are exactly
// the nil-Scratch forms.
type Scratch struct {
	logits []float32
	w      []float32
	out    []float32
	sorted []float32
	qq     vec.QueryQ8 // quantized query of the SQ8 partial (OverQ8Scratch)
}

// growF32 returns buf resized to n entries, reallocating only on capacity
// growth. Contents are unspecified.
func growF32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// buffers returns the logit, weight, and (zeroed) output buffers for a
// partial over n tokens in dim dimensions, reusing the arena when sc is
// non-nil.
func (sc *Scratch) buffers(n, dim int) (logits, w, out []float32) {
	if sc == nil {
		return make([]float32, n), make([]float32, n), make([]float32, dim)
	}
	sc.logits = growF32(sc.logits, n)
	sc.w = growF32(sc.w, n)
	sc.out = growF32(sc.out, dim)
	vec.Zero(sc.out)
	return sc.logits, sc.w, sc.out
}

// outBuf returns a zeroed dim-sized output buffer from the arena (or fresh
// when sc is nil).
func (sc *Scratch) outBuf(dim int) []float32 {
	if sc == nil {
		return make([]float32, dim)
	}
	sc.out = growF32(sc.out, dim)
	vec.Zero(sc.out)
	return sc.out
}

// scaleLogits divides raw inner products by √d, matching vec.ScaledDot
// bitwise (division, not multiplication by a reciprocal).
func scaleLogits(logits []float32, d int) {
	s := float32(math.Sqrt(float64(d)))
	for i := range logits {
		logits[i] /= s
	}
}

// WeightsScratch is Weights computing into sc's arena: the returned
// distribution is valid until sc's next use.
func WeightsScratch(sc *Scratch, q []float32, K *vec.Matrix) []float32 {
	n := K.Rows()
	var logits []float32
	if sc == nil {
		logits = make([]float32, n)
	} else {
		sc.logits = growF32(sc.logits, n)
		logits = sc.logits
	}
	vec.DotBatch(q, K, logits)
	scaleLogits(logits, len(q))
	vec.Softmax(logits, logits)
	return logits
}

// FullScratch is Full computing into sc's arena: the returned output is
// valid until sc's next use.
func FullScratch(sc *Scratch, q []float32, K, V *vec.Matrix) []float32 {
	checkKV(K, V)
	n := K.Rows()
	logits, w, out := sc.buffers(n, V.Cols())
	vec.DotBatch(q, K, logits)
	scaleLogits(logits, len(q))
	vec.Softmax(logits, w)
	vec.WeightedSumRange(w, V, 0, n, out)
	return out
}

// OverScratch is Over computing into sc's arena: the Partial's Output is
// valid until sc's next use.
func OverScratch(sc *Scratch, q []float32, K, V *vec.Matrix, idx []int) Partial {
	checkKV(K, V)
	if len(idx) == 0 {
		return Partial{Output: sc.outBuf(V.Cols()), LSE: math.Inf(-1)}
	}
	logits, w, out := sc.buffers(len(idx), V.Cols())
	vec.DotGather(q, K, idx, logits)
	scaleLogits(logits, len(q))
	lse := vec.Softmax(logits, w)
	vec.WeightedSumGather(w, V, idx, out)
	return Partial{Output: out, LSE: lse, Count: len(idx)}
}

// OverRangeScratch is OverRange computing into sc's arena: the Partial's
// Output is valid until sc's next use.
func OverRangeScratch(sc *Scratch, q []float32, K, V *vec.Matrix, lo, hi int) Partial {
	checkKV(K, V)
	if lo < 0 || hi < lo || hi > K.Rows() {
		panic(fmt.Sprintf("attention: range [%d,%d) out of %d rows", lo, hi, K.Rows()))
	}
	n := hi - lo
	if n == 0 {
		return Partial{Output: sc.outBuf(V.Cols()), LSE: math.Inf(-1)}
	}
	logits, w, out := sc.buffers(n, V.Cols())
	vec.DotBatchRange(q, K, lo, hi, logits)
	return rangePartial(logits, w, out, len(q), V, lo, hi)
}

// OverLogitsScratch is OverRangeScratch with the raw inner products already
// computed: logits[i] must hold q·K.Row(lo+i) for a query q of d floats,
// as one multi-query pass (vec.DotBatchRangeMulti) fills them for all the
// query heads of a KV group. It scales logits in place. The Partial is
// bitwise OverRangeScratch's over the same rows, and so OverScratch's over
// the index list lo..hi-1; its Output is valid until sc's next use.
func OverLogitsScratch(sc *Scratch, logits []float32, d int, V *vec.Matrix, lo, hi int) Partial {
	if lo < 0 || hi < lo || hi > V.Rows() || len(logits) != hi-lo {
		panic(fmt.Sprintf("attention: %d logits for range [%d,%d) of %d rows", len(logits), lo, hi, V.Rows()))
	}
	if hi == lo {
		return Partial{Output: sc.outBuf(V.Cols()), LSE: math.Inf(-1)}
	}
	var w []float32
	if sc == nil {
		w = make([]float32, hi-lo)
	} else {
		sc.w = growF32(sc.w, hi-lo)
		w = sc.w
	}
	return rangePartial(logits, w, sc.outBuf(V.Cols()), d, V, lo, hi)
}

// rangePartial finishes a partial over rows [lo, hi) from their raw logits:
// scale, softmax into w, and mix V's rows into the zeroed out.
func rangePartial(logits, w, out []float32, d int, V *vec.Matrix, lo, hi int) Partial {
	scaleLogits(logits, d)
	lse := vec.Softmax(logits, w)
	vec.WeightedSumRange(w, V, lo, hi, out)
	return Partial{Output: out, LSE: lse, Count: hi - lo}
}

// SparseScratch is Sparse computing into sc's arena.
func SparseScratch(sc *Scratch, q []float32, K, V *vec.Matrix, idx []int) []float32 {
	return OverScratch(sc, q, K, V, idx).Output
}

// OverQ8Scratch is OverScratch with logits gathered from the SQ8 key plane:
// the query is quantized once into the arena and each listed row is scored
// by the fused int8 kernel (one int32 code dot, one dequantizing multiply).
// Values stay fp32, so only the score side is approximate.
//
// Tolerance: each raw logit differs from the exact dot against the
// (snapped) fp32 plane by at most qK.DotErrBound(...) — before the 1/√d
// logit scaling — so the softmax weights, and therefore the output, are
// exact up to that bound; with per-row scales the bound is a fraction of a
// percent of the logit range in practice. Callers needing bitwise fp32
// output use OverScratch.
func OverQ8Scratch(sc *Scratch, q []float32, qK *vec.QuantMatrix, V *vec.Matrix, idx []int) Partial {
	if qK.Rows() != V.Rows() {
		panic(fmt.Sprintf("attention: quant K has %d rows, V has %d", qK.Rows(), V.Rows()))
	}
	if len(idx) == 0 {
		return Partial{Output: sc.outBuf(V.Cols()), LSE: math.Inf(-1)}
	}
	logits, w, out := sc.buffers(len(idx), V.Cols())
	if sc == nil {
		var qq vec.QueryQ8
		qq.Quantize(q)
		vec.DotGatherQ8(&qq, qK, idx, logits)
	} else {
		sc.qq.Quantize(q)
		vec.DotGatherQ8(&sc.qq, qK, idx, logits)
	}
	scaleLogits(logits, len(q))
	lse := vec.Softmax(logits, w)
	vec.WeightedSumGather(w, V, idx, out)
	return Partial{Output: out, LSE: lse, Count: len(idx)}
}

// MergeInto combines partials exactly as Merge does, accumulating into dst
// (which must be sized to the output dimensionality and is zeroed first).
// It returns dst. Unlike Merge it never allocates, so a reused dst plus
// Scratch-computed partials make the whole partial-compute-merge pipeline
// garbage-free.
func MergeInto(dst []float32, parts []Partial) []float32 {
	if len(parts) == 0 {
		panic("attention: merge of no partials")
	}
	vec.Zero(dst)
	maxLSE := math.Inf(-1)
	for _, p := range parts {
		if p.LSE > maxLSE {
			maxLSE = p.LSE
		}
	}
	if math.IsInf(maxLSE, -1) {
		return dst
	}
	var denom float64
	for _, p := range parts {
		if math.IsInf(p.LSE, -1) {
			continue
		}
		denom += math.Exp(p.LSE - maxLSE)
	}
	for _, p := range parts {
		if math.IsInf(p.LSE, -1) {
			continue
		}
		w := float32(math.Exp(p.LSE-maxLSE) / denom)
		vec.Axpy(w, p.Output, dst)
	}
	return dst
}

// CombinedLSE returns the log-sum-exp of the partials' own LSEs — the LSE
// the merged output would report if it were itself a Partial. A remote
// shard ships this alongside its merged output so a router can fold
// per-node results through Merge again: the fold is associative exactly
// because each level re-derives its weights from these combined LSEs.
// All-empty input (every LSE = −Inf) returns −Inf.
func CombinedLSE(parts []Partial) float64 {
	maxLSE := math.Inf(-1)
	for _, p := range parts {
		if p.LSE > maxLSE {
			maxLSE = p.LSE
		}
	}
	if math.IsInf(maxLSE, -1) {
		return maxLSE
	}
	var sum float64
	for _, p := range parts {
		if math.IsInf(p.LSE, -1) {
			continue
		}
		sum += math.Exp(p.LSE - maxLSE)
	}
	return maxLSE + math.Log(sum)
}

// TokensForRecoveryScratch is TokensForRecovery sorting inside sc's arena
// instead of copying w into a fresh slice per call.
func TokensForRecoveryScratch(sc *Scratch, w []float32, target float64) int {
	if len(w) == 0 || target <= 0 {
		return 0
	}
	var s []float32
	if sc == nil {
		s = append([]float32(nil), w...)
	} else {
		sc.sorted = append(sc.sorted[:0], w...)
		s = sc.sorted
	}
	sortDescending(s)
	var acc float64
	for i, v := range s {
		acc += float64(v)
		if acc >= target {
			return i + 1
		}
	}
	return len(w)
}
