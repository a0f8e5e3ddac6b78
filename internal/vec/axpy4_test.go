package vec

import (
	"math"
	"math/rand"
	"testing"
)

// The pin tests for the 4-row value-mix kernel: axpy4, and the weighted
// sums built on it, must reproduce an Axpy per row bit for bit.

// axpy4Ref returns out after four Axpy calls, and after axpy4Generic, each
// on its own copy of out.
func axpy4Ref(w *[4]float32, rows [4][]float32, out []float32) (axpys, generic []float32) {
	axpys, generic = Clone(out), Clone(out)
	for r, row := range rows {
		Axpy(w[r], row, axpys)
	}
	axpy4Generic(w, rows[0], rows[1], rows[2], rows[3], generic)
	return axpys, generic
}

// checkAxpy4 runs axpy4 on out in place and compares every element with
// four Axpy calls and with axpy4Generic. It also checks that no row was
// written.
func checkAxpy4(t *testing.T, label string, w *[4]float32, rows [4][]float32, out []float32) {
	t.Helper()
	axpys, generic := axpy4Ref(w, rows, out)
	before := make([][]float32, 4)
	for r, row := range rows {
		before[r] = Clone(row)
	}
	axpy4(w, rows[0], rows[1], rows[2], rows[3], out)
	for j := range out {
		if !sameBits(out[j], axpys[j]) || !sameBits(out[j], generic[j]) {
			t.Fatalf("%s: d=%d out[%d] = %v (%#08x), Axpy = %v (%#08x), generic = %v (%#08x)",
				label, len(out), j, out[j], math.Float32bits(out[j]), axpys[j], math.Float32bits(axpys[j]),
				generic[j], math.Float32bits(generic[j]))
		}
	}
	checkUnwritten(t, label, before, rows[:])
}

// checkUnwritten fails if any row differs in bits from its copy taken
// before the kernel ran.
func checkUnwritten(t *testing.T, label string, before, rows [][]float32) {
	t.Helper()
	for r, row := range rows {
		for j := range row {
			if math.Float32bits(row[j]) != math.Float32bits(before[r][j]) {
				t.Fatalf("%s: source row %d element %d was written", label, r, j)
			}
		}
	}
}

func TestAxpy4BitwiseMatchesAxpy(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for d := 1; d <= 132; d++ {
		for trial := 0; trial < 10; trial++ {
			w := [4]float32{float32(rng.NormFloat64()), float32(rng.NormFloat64()),
				float32(rng.NormFloat64()), float32(rng.NormFloat64())}
			rows := [4][]float32{wideSlice(rng, d), wideSlice(rng, d), wideSlice(rng, d), wideSlice(rng, d)}
			checkAxpy4(t, "finite", &w, rows, wideSlice(rng, d))
		}
	}
}

// TestAxpy4Unaligned starts every row and out at an odd float offset of its
// backing array, so no load or store is 16-byte aligned.
func TestAxpy4Unaligned(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	for _, d := range []int{4, 12, 127, 128, 132} {
		for _, off := range []int{1, 3, 5} {
			buf := wideSlice(rng, off+4*d)
			var rows [4][]float32
			for r := range rows {
				rows[r] = buf[off+r*d : off+(r+1)*d]
			}
			w := [4]float32{0.25, -1.5, 3e-3, 7}
			checkAxpy4(t, "unaligned", &w, rows, wideSlice(rng, off+d)[off:])
		}
	}
}

// TestAxpy4SpecialValues mixes signed zeros, subnormals, infinities, NaN
// and very large magnitudes into the weights, the rows and out: every
// element must match Axpy's bits (including the sign of zero), and be NaN
// exactly when Axpy's is.
func TestAxpy4SpecialValues(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	negZero := float32(math.Copysign(0, -1))
	special := []float32{
		0, negZero,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
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
	for d := 1; d <= 132; d++ {
		for _, density := range []float64{0.05, 0.5, 1} {
			for trial := 0; trial < 4; trial++ {
				var w [4]float32
				copy(w[:], pick(4, density))
				rows := [4][]float32{pick(d, density), pick(d, density), pick(d, density), pick(d, density)}
				checkAxpy4(t, "special", &w, rows, pick(d, density))
			}
		}
		// Signed zeros only: whether a sum is −0 depends on every add,
		// which the kernel must reproduce.
		zeros := func(every int) []float32 {
			out := make([]float32, d)
			for i := range out {
				if i%every == 0 {
					out[i] = negZero
				}
			}
			return out
		}
		w := [4]float32{negZero, 1, negZero, -1}
		checkAxpy4(t, "zeros", &w, [4][]float32{zeros(1), zeros(2), zeros(3), zeros(1)}, zeros(2))
	}
}

// TestWeightedSumsTailAndRepeats runs both weighted sums at width 128 over
// every row count from 0 to 11 (so 0–3 rows are left over after the 4-row
// passes), the gather with repeated indices, and compares each with an
// Axpy per row in order. The matrix must be left untouched.
func TestWeightedSumsTailAndRepeats(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	const d = 128
	m := MatrixFromData(d, wideSlice(rng, 13*d))
	before := Clone(m.RowSpan(0, m.Rows()))
	for rows := 0; rows <= 11; rows++ {
		w := wideSlice(rng, rows)
		start := wideSlice(rng, d)

		want := Clone(start)
		for i := 0; i < rows; i++ {
			Axpy(w[i], m.Row(2+i), want)
		}
		got := Clone(start)
		WeightedSumRange(w, m, 2, 2+rows, got)
		checkSum(t, "range", rows, got, want)

		idx := make([]int, rows)
		for i := range idx {
			idx[i] = 3 - i%4 // rows 3..0 cycled: every index repeats from the fifth on
		}
		if rows > 1 {
			idx[1] = idx[0] // a repeat inside the first 4-row pass
		}
		want = Clone(start)
		for j, r := range idx {
			Axpy(w[j], m.Row(r), want)
		}
		got = Clone(start)
		WeightedSumGather(w, m, idx, got)
		checkSum(t, "gather", rows, got, want)
	}
	checkUnwritten(t, "weighted sums", [][]float32{before}, [][]float32{m.RowSpan(0, m.Rows())})
}

func checkSum(t *testing.T, label string, rows int, got, want []float32) {
	t.Helper()
	for j := range got {
		if !sameBits(got[j], want[j]) {
			t.Fatalf("%s over %d rows: out[%d] = %v (%#08x), Axpy loop = %v (%#08x)",
				label, rows, j, got[j], math.Float32bits(got[j]), want[j], math.Float32bits(want[j]))
		}
	}
}
