package vec

import (
	"math"
	"math/rand"
	"testing"
)

// The pin tests for the 4-row kernel: both of its shapes — strided
// (DotBatchRange over consecutive matrix rows) and gathered (Dot4 and
// DotGather over arbitrary row slices) — must reproduce Dot bit for bit.

// kernelWidths run the SSE kernel on amd64; fallbackWidths are not a
// multiple of 4 and take the four-Dot path on every architecture.
var (
	kernelWidths   = []int{4, 8, 12, 64, 128, 132}
	fallbackWidths = []int{1, 5, 7, 130}
)

// wideSlice draws finite values over ~40 binary orders of magnitude with
// random signs, so that any change to the accumulation or reduction order
// changes the rounded result.
func wideSlice(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64() * math.Ldexp(1, rng.Intn(41)-20))
	}
	return out
}

// sameBits reports whether got reproduces want: identical bits, or both NaN
// (NaN payloads are not part of the contract).
func sameBits(got, want float32) bool {
	if math.IsNaN(float64(want)) {
		return math.IsNaN(float64(got))
	}
	return math.Float32bits(got) == math.Float32bits(want)
}

// checkBothShapes scores q against m's rows through the strided and the
// gathered shape and compares every score with Dot.
func checkBothShapes(t *testing.T, label string, q []float32, m *Matrix) {
	t.Helper()
	rows := m.Rows()
	strided := make([]float32, rows)
	DotBatchRange(q, m, 0, rows, strided)
	idx := make([]int, rows)
	for i := range idx {
		idx[i] = rows - 1 - i // reversed: rows of one Dot4 pass are not adjacent
	}
	gathered := make([]float32, rows)
	DotGather(q, m, idx, gathered)
	for i := 0; i < rows; i++ {
		want := Dot(q, m.Row(i))
		if !sameBits(strided[i], want) {
			t.Fatalf("%s: strided row %d = %v (%#08x), Dot = %v (%#08x)",
				label, i, strided[i], math.Float32bits(strided[i]), want, math.Float32bits(want))
		}
		if g := gathered[rows-1-i]; !sameBits(g, want) {
			t.Fatalf("%s: gathered row %d = %v (%#08x), Dot = %v (%#08x)",
				label, i, g, math.Float32bits(g), want, math.Float32bits(want))
		}
	}
	for i := 0; i+4 <= rows; i += 4 {
		var out [4]float32
		Dot4(q, m.Row(i+3), m.Row(i), m.Row(i+2), m.Row(i+1), &out)
		for j, r := range []int{i + 3, i, i + 2, i + 1} {
			if want := Dot(q, m.Row(r)); !sameBits(out[j], want) {
				t.Fatalf("%s: Dot4 lane %d (row %d) = %v, Dot = %v", label, j, r, out[j], want)
			}
		}
	}
}

func TestDot4BitwiseMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, d := range append(append([]int{}, kernelWidths...), fallbackWidths...) {
		for trial := 0; trial < 20; trial++ {
			m := MatrixFromData(d, wideSlice(rng, 13*d)) // 3 blocks + a 1-row tail
			checkBothShapes(t, "finite", wideSlice(rng, d), m)
		}
	}
}

// TestDot4Unaligned runs both shapes on rows and queries that start at odd
// float offsets of their backing arrays, so no load is 16-byte aligned.
func TestDot4Unaligned(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for _, d := range []int{4, 12, 128, 5} {
		for _, off := range []int{1, 3, 5} {
			buf := wideSlice(rng, off+9*d)
			m := MatrixFromData(d, buf[off:off+8*d])
			qbuf := wideSlice(rng, off+d)
			checkBothShapes(t, "unaligned", qbuf[off:], m)
		}
	}
}

// TestDot4SpecialValues mixes signed zeros, infinities and subnormals into
// the inputs: every finite score must match Dot's bits (including the sign
// of zero), and a score must be NaN exactly when Dot's is.
func TestDot4SpecialValues(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	special := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1), math.Float32frombits(0x8000_0001), // ±smallest subnormal
		math.Float32frombits(0x007f_ffff),  // largest subnormal
		math.SmallestNonzeroFloat32 * 1024, // subnormal
		1e-30, -1e-30, 3e38, -3e38, 1, -1,  // products underflow/overflow
	}
	pick := func(n int, density float64) []float32 {
		out := wideSlice(rng, n)
		for i := range out {
			if rng.Float64() < density {
				out[i] = special[rng.Intn(len(special))]
			}
		}
		return out
	}
	for _, d := range append(append([]int{}, kernelWidths...), fallbackWidths...) {
		for _, density := range []float64{0.05, 0.5, 1} {
			for trial := 0; trial < 10; trial++ {
				checkBothShapes(t, "special", pick(d, density), MatrixFromData(d, pick(8*d, density)))
			}
		}
		// All signed zeros: the sign of a zero sum depends on the order of
		// the adds, which the kernel must reproduce.
		negZero := float32(math.Copysign(0, -1))
		q := make([]float32, d)
		rows := make([]float32, 4*d)
		for i := range q {
			q[i] = negZero
		}
		for i := range rows {
			if i%3 == 0 {
				rows[i] = negZero
			}
		}
		checkBothShapes(t, "zeros", q, MatrixFromData(d, rows))
	}
}

func TestDot4MismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot4 with a short row did not panic")
		}
	}()
	var out [4]float32
	q := make([]float32, 8)
	Dot4(q, q, q, q[:4], q, &out)
}
