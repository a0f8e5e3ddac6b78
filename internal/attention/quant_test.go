package attention

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

func quantFixture(rng *rand.Rand, n, d int) (K *vec.Matrix, qK *vec.QuantMatrix, V *vec.Matrix) {
	K = vec.NewMatrix(n, d)
	V = vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			K.Row(i)[j] = rng.Float32()*2 - 1
			V.Row(i)[j] = rng.Float32()*2 - 1
		}
	}
	// Snap the fp32 plane to the quantized one, as kvcache does.
	qK = vec.QuantizeMatrix(K)
	for i := 0; i < n; i++ {
		qK.DequantizeRow(i, K.Row(i))
	}
	return K, qK, V
}

// TestOverQ8WithinTolerance checks the documented tolerance of the SQ8
// partial: its output stays within a bound derived from the logit error
// bound of the quantized scoring, compared against the exact fp32 partial
// over the snapped plane.
func TestOverQ8WithinTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n, d = 300, 32
	K, qK, V := quantFixture(rng, n, d)
	idx := make([]int, 0, n/2)
	for i := 0; i < n; i += 2 {
		idx = append(idx, i)
	}
	for trial := 0; trial < 10; trial++ {
		q := make([]float32, d)
		for j := range q {
			q[j] = rng.Float32()*2 - 1
		}
		exact := Over(q, K, V, idx)
		quant := OverQ8(q, qK, V, idx)
		if quant.Count != exact.Count {
			t.Fatalf("counts diverge: %d vs %d", quant.Count, exact.Count)
		}
		// A logit perturbation of delta changes softmax weights by at most
		// ~2*delta (relatively), and outputs are convex mixes of the same
		// value rows: bound the output gap by 4*delta*max|V|.
		var qq vec.QueryQ8
		qq.Quantize(q)
		delta := float64(qK.DotErrBound(&qq)) / math.Sqrt(d)
		var maxV float64
		for _, i := range idx {
			for _, x := range V.Row(i) {
				if a := math.Abs(float64(x)); a > maxV {
					maxV = a
				}
			}
		}
		tol := 4 * delta * maxV
		for j := range exact.Output {
			if diff := math.Abs(float64(exact.Output[j] - quant.Output[j])); diff > tol {
				t.Fatalf("trial %d dim %d: |%v - %v| = %v exceeds tolerance %v",
					trial, j, exact.Output[j], quant.Output[j], diff, tol)
			}
		}
		if math.Abs(quant.LSE-exact.LSE) > 2*delta+1e-6 {
			t.Fatalf("trial %d: LSE gap %v exceeds %v", trial, math.Abs(quant.LSE-exact.LSE), 2*delta)
		}
	}
}

// TestOverQ8Deterministic pins that the SQ8 partial is a pure function of
// codes and scales: scratch and allocating forms agree bitwise, as do
// repeated calls — the property the spill tier's bitwise reload identity
// rests on.
func TestOverQ8Deterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const n, d = 128, 16
	_, qK, V := quantFixture(rng, n, d)
	q := make([]float32, d)
	for j := range q {
		q[j] = rng.Float32()*2 - 1
	}
	idx := []int{3, 77, 12, 99, 64}
	var sc Scratch
	a := OverQ8(q, qK, V, idx)
	b := OverQ8Scratch(&sc, q, qK, V, idx)
	if a.LSE != b.LSE {
		t.Fatalf("LSE diverges: %v vs %v", a.LSE, b.LSE)
	}
	for j := range a.Output {
		if a.Output[j] != b.Output[j] {
			t.Fatalf("dim %d: %v vs %v", j, a.Output[j], b.Output[j])
		}
	}
	// Clone round trip (codes + scales) reproduces the partial bitwise.
	c := OverQ8(q, qK.Clone(), V, idx)
	for j := range a.Output {
		if a.Output[j] != c.Output[j] {
			t.Fatalf("clone dim %d: %v vs %v", j, a.Output[j], c.Output[j])
		}
	}
}

// TestOverQ8Empty covers the empty-subset partial.
func TestOverQ8Empty(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	_, qK, V := quantFixture(rng, 10, 8)
	p := OverQ8(make([]float32, 8), qK, V, nil)
	if !math.IsInf(p.LSE, -1) || len(p.Output) != 8 {
		t.Fatalf("empty partial = %+v", p)
	}
}

// TestOverQ8ScratchZeroAllocWarm keeps the SQ8 partial on the
// allocation-free decode path.
func TestOverQ8ScratchZeroAllocWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const n, d = 512, 32
	_, qK, V := quantFixture(rng, n, d)
	q := make([]float32, d)
	for j := range q {
		q[j] = rng.Float32()*2 - 1
	}
	idx := make([]int, 64)
	for i := range idx {
		idx[i] = (i * 7) % n
	}
	var sc Scratch
	OverQ8Scratch(&sc, q, qK, V, idx) // warm
	allocs := testing.AllocsPerRun(20, func() {
		OverQ8Scratch(&sc, q, qK, V, idx)
	})
	if allocs != 0 {
		t.Fatalf("warm OverQ8Scratch allocated %.1f times per run, want 0", allocs)
	}
}
