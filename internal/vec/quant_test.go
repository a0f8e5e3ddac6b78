package vec

import (
	"math"
	"math/rand"
	"testing"
)

func randVec(rng *rand.Rand, d int, scale float32) []float32 {
	v := make([]float32, d)
	for i := range v {
		v[i] = (rng.Float32()*2 - 1) * scale
	}
	return v
}

// TestQuantizeDequantizeRoundTrip is the PR's quantization property test:
// every component of a dequantized row is within half a scale step of the
// original, across magnitudes, signs, and degenerate rows.
func TestQuantizeDequantizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	buf := make([]float32, 0)
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(200)
		mag := float32(math.Pow(10, float64(rng.Intn(7)-3)))
		v := randVec(rng, d, mag)
		switch trial % 10 {
		case 0: // all zero
			for i := range v {
				v[i] = 0
			}
		case 1: // single spike
			for i := range v {
				v[i] = 0
			}
			v[rng.Intn(d)] = mag
		}
		qm := NewQuantMatrix(d)
		row := qm.Append(v)
		if cap(buf) < d {
			buf = make([]float32, d)
		}
		out := buf[:d]
		qm.DequantizeRow(row, out)
		bound := qm.Scale(row) / 2 * (1 + 1e-5)
		for i := range v {
			if err := float32(math.Abs(float64(v[i] - out[i]))); err > bound {
				t.Fatalf("trial %d dim %d: |%v - %v| = %v exceeds scale bound %v",
					trial, i, v[i], out[i], err, bound)
			}
		}
	}
}

// TestQuantizeSnappedIsFixedPoint pins the property the SQ8 spill format
// relies on: quantizing an already-dequantized row reproduces the same
// codes and scale bit for bit, so the spill writer can re-quantize the
// resident (snapped) rows and a reload dequantizes exactly those rows.
// SnapRow must write the dequantized row itself. Zero rows and rows with
// one nonzero component are included.
func TestQuantizeSnappedIsFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 300; trial++ {
		d := 1 + rng.Intn(128)
		v := randVec(rng, d, float32(math.Pow(10, float64(rng.Intn(7)-3))))
		switch trial % 10 {
		case 0: // all zero, one component negative zero
			zero := make([]float32, d)
			zero[rng.Intn(d)] = float32(math.Copysign(0, -1))
			v = zero
		case 1: // one nonzero component
			spike := make([]float32, d)
			spike[rng.Intn(d)] = v[0]
			v = spike
		}
		qm := NewQuantMatrix(d)
		qm.Append(v)
		snapped := make([]float32, d)
		qm.DequantizeRow(0, snapped)

		inPlace := append([]float32(nil), v...)
		SnapRow(inPlace)
		for i := range snapped {
			if math.Float32bits(inPlace[i]) != math.Float32bits(snapped[i]) {
				t.Fatalf("trial %d dim %d: SnapRow wrote %v, dequantized row holds %v", trial, i, inPlace[i], snapped[i])
			}
		}

		again := NewQuantMatrix(d)
		again.Append(snapped)
		if math.Float32bits(again.Scale(0)) != math.Float32bits(qm.Scale(0)) {
			t.Fatalf("trial %d: scale %v re-quantized to %v", trial, qm.Scale(0), again.Scale(0))
		}
		codes, reCodes := qm.RowCodes(0), again.RowCodes(0)
		for i := range codes {
			if codes[i] != reCodes[i] {
				t.Fatalf("trial %d dim %d: code %d re-quantized to %d", trial, i, codes[i], reCodes[i])
			}
		}
		resnapped := make([]float32, d)
		again.DequantizeRow(0, resnapped)
		for i := range snapped {
			if math.Float32bits(snapped[i]) != math.Float32bits(resnapped[i]) {
				t.Fatalf("trial %d dim %d: snapped %v re-snapped to %v", trial, i, snapped[i], resnapped[i])
			}
		}
	}
}

// TestFusedScoreErrorBound checks that the fused int8 score is within
// DotErrBound of the exact fp32 dot against the dequantized plane — the
// inequality that justifies the β widening in DIPRS.
func TestFusedScoreErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const d = 96
	qm := NewQuantMatrix(d)
	deq := NewMatrix(0, d)
	row := make([]float32, d)
	for i := 0; i < 300; i++ {
		v := randVec(rng, d, float32(math.Pow(4, float64(rng.Intn(4)-2))))
		r := qm.Append(v)
		qm.DequantizeRow(r, row)
		deq.Append(row)
	}
	var qq QueryQ8
	scores := make([]float32, qm.Rows())
	exact := make([]float32, qm.Rows())
	for trial := 0; trial < 50; trial++ {
		q := randVec(rng, d, 2)
		qq.Quantize(q)
		DotBatchQ8(&qq, qm, scores)
		DotBatch(q, deq, exact)
		uniform := qm.DotErrBound(&qq)
		for i := range scores {
			err := math.Abs(float64(scores[i] - exact[i]))
			if rowBound := qm.ErrBoundRow(&qq, i); err > float64(rowBound) {
				t.Fatalf("trial %d row %d: |%v - %v| = %v exceeds row bound %v",
					trial, i, scores[i], exact[i], err, rowBound)
			}
			if err > float64(uniform) {
				t.Fatalf("trial %d row %d: error %v exceeds uniform bound %v", trial, i, err, uniform)
			}
		}
	}
}

// TestQ8KernelsAgree pins the batch, gather, and range kernels to the same
// fused formulation.
func TestQ8KernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const d, n = 33, 41 // off block boundaries on purpose
	qm := NewQuantMatrix(d)
	for i := 0; i < n; i++ {
		qm.Append(randVec(rng, d, 2))
	}
	var qq QueryQ8
	qq.Quantize(randVec(rng, d, 1))

	batch := make([]float32, n)
	DotBatchQ8(&qq, qm, batch)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = (i * 7) % n
	}
	gather := make([]float32, n)
	DotGatherQ8(&qq, qm, idx, gather)
	for j, i := range idx {
		if gather[j] != batch[i] {
			t.Fatalf("gather[%d] (row %d) = %v, batch = %v", j, i, gather[j], batch[i])
		}
	}

	// Range kernel over a sub-span matches the full batch.
	lo, hi := 5, 38
	ranged := make([]float32, hi-lo)
	DotBatchQ8Range(&qq, qm, lo, hi, ranged)
	for i := range ranged {
		if ranged[i] != batch[lo+i] {
			t.Fatalf("range[%d] = %v, batch[%d] = %v", i, ranged[i], lo+i, batch[lo+i])
		}
	}
}

// TestDotQ8WMatchesGeneric pins the platform dotQ8W kernel (SSE2 on amd64)
// to the portable reference across lengths that exercise every tail case,
// including negative codes in each lane.
func TestDotQ8WMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 24, 31, 64, 127, 128, 333} {
		q := make([]int16, n)
		k := make([]int8, n)
		for i := range q {
			c := int8(rng.Intn(255) - 127)
			q[i] = int16(c)
			k[i] = int8(rng.Intn(255) - 127)
		}
		want := dotQ8WGeneric(q, k)
		if got := dotQ8W(q, k); got != want {
			t.Fatalf("n=%d: dotQ8W = %d, generic = %d", n, got, want)
		}
	}
}

// TestPackUnpackCodes round-trips code rows through the packed float32-word
// spill representation, including widths that pad the final word.
func TestPackUnpackCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 64, 127, 128} {
		qm := NewQuantMatrix(d)
		qm.Append(randVec(rng, d, 5))
		words := make([]float32, PackedWords(d))
		qm.PackRow(0, words)
		got := make([]int8, d)
		UnpackCodes(words, got)
		want := qm.RowCodes(0)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("d=%d code %d: packed round trip %d != %d", d, i, got[i], want[i])
			}
		}
	}
}

func BenchmarkDotF32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const d, n = 128, 2048
	m := NewMatrix(0, d)
	for i := 0; i < n; i++ {
		m.Append(randVec(rng, d, 1))
	}
	q := randVec(rng, d, 1)
	out := make([]float32, n)
	b.SetBytes(int64(n) * d * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DotBatch(q, m, out)
	}
}

func BenchmarkDotQ8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const d, n = 128, 2048
	qm := NewQuantMatrix(d)
	for i := 0; i < n; i++ {
		qm.Append(randVec(rng, d, 1))
	}
	var qq QueryQ8
	qq.Quantize(randVec(rng, d, 1))
	out := make([]float32, n)
	b.SetBytes(int64(n) * d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DotBatchQ8(&qq, qm, out)
	}
}
