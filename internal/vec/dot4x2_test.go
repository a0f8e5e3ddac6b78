package vec

import (
	"math"
	"math/rand"
	"testing"
)

// The pin tests for the 4-query × 2-row kernel: Dot4x2 and every padding
// case of DotBatchRangeMulti must reproduce Dot bit for bit.

// multiWidths are every kernel width from 4 to 132 plus widths that are not
// a multiple of 4, which take the eight-Dot path on every architecture.
func multiWidths() []int {
	var ws []int
	for d := 4; d <= 132; d += 4 {
		ws = append(ws, d)
	}
	return append(ws, 1, 3, 5, 7, 130)
}

// checkDot4x2 scores the four queries against the two rows and compares
// all eight outputs with Dot.
func checkDot4x2(t *testing.T, label string, qs [4][]float32, r0, r1 []float32) {
	t.Helper()
	var out [2][4]float32
	Dot4x2(qs[0], qs[1], qs[2], qs[3], r0, r1, &out)
	for r, row := range [2][]float32{r0, r1} {
		for j, q := range qs {
			if want := Dot(q, row); !sameBits(out[r][j], want) {
				t.Fatalf("%s: query %d row %d = %v (%#08x), Dot = %v (%#08x)",
					label, j, r, out[r][j], math.Float32bits(out[r][j]), want, math.Float32bits(want))
			}
		}
	}
}

// checkMulti runs DotBatchRangeMulti over rows [lo, hi) of m and compares
// every score with Dot. Output rows are prefilled with a sentinel so a
// score written past hi-lo, or one never written, is caught too.
func checkMulti(t *testing.T, label string, qs [][]float32, m *Matrix, lo, hi int) {
	t.Helper()
	const sentinel = 12345
	outs := make([][]float32, len(qs))
	for j := range outs {
		outs[j] = make([]float32, hi-lo+1)
		for i := range outs[j] {
			outs[j][i] = sentinel
		}
	}
	DotBatchRangeMulti(qs, m, lo, hi, outs)
	for j, q := range qs {
		for i := 0; i < hi-lo; i++ {
			if want := Dot(q, m.Row(lo+i)); !sameBits(outs[j][i], want) {
				t.Fatalf("%s: query %d row %d = %v (%#08x), Dot = %v (%#08x)",
					label, j, lo+i, outs[j][i], math.Float32bits(outs[j][i]), want, math.Float32bits(want))
			}
		}
		if outs[j][hi-lo] != sentinel {
			t.Fatalf("%s: query %d wrote past its %d rows", label, j, hi-lo)
		}
	}
}

func TestDot4x2BitwiseMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for _, d := range multiWidths() {
		for trial := 0; trial < 10; trial++ {
			var qs [4][]float32
			for j := range qs {
				qs[j] = wideSlice(rng, d)
			}
			checkDot4x2(t, "finite", qs, wideSlice(rng, d), wideSlice(rng, d))
		}
	}
}

// TestDot4x2Unaligned starts every query and row at an odd float offset of
// its backing array, so no load is 16-byte aligned.
func TestDot4x2Unaligned(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for _, d := range []int{4, 12, 128, 132, 5} {
		for _, off := range []int{1, 3, 5} {
			buf := wideSlice(rng, off+6*d)
			var qs [4][]float32
			for j := range qs {
				qs[j] = buf[off+j*d : off+(j+1)*d]
			}
			rows := wideSlice(rng, off+2*d)
			checkDot4x2(t, "unaligned", qs, rows[off:off+d], rows[off+d:])
			m := MatrixFromData(d, wideSlice(rng, off+7*d)[off:])
			checkMulti(t, "unaligned multi", qs[:], m, 0, m.Rows())
		}
	}
}

// TestDot4x2SpecialValues mixes signed zeros, infinities, NaN and
// subnormals into queries and rows: a finite score must match Dot's bits
// (including the sign of zero), and a score must be NaN exactly when Dot's
// is.
func TestDot4x2SpecialValues(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
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
	for _, d := range multiWidths() {
		for _, density := range []float64{0.05, 0.5, 1} {
			for trial := 0; trial < 4; trial++ {
				var qs [4][]float32
				for j := range qs {
					qs[j] = pick(d, density)
				}
				checkDot4x2(t, "special", qs, pick(d, density), pick(d, density))
				checkMulti(t, "special multi", qs[:3], MatrixFromData(d, pick(5*d, density)), 0, 5)
			}
		}
		// All signed zeros: the sign of a zero sum depends on the order of
		// the adds, which the kernel must reproduce.
		zeros := func(every int) []float32 {
			out := make([]float32, d)
			for i := range out {
				if i%every == 0 {
					out[i] = negZero
				}
			}
			return out
		}
		checkDot4x2(t, "zeros", [4][]float32{zeros(1), zeros(2), zeros(3), zeros(1)}, zeros(1), zeros(3))
	}
}

// TestDotBatchRangeMultiPadding runs every query count from 1 to 9 against
// every row count from 0 to 9, at a kernel width and a fallback width, over
// whole matrices and interior ranges: every combination of padded query
// pass, single leftover query and odd last row.
func TestDotBatchRangeMultiPadding(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	for _, d := range []int{8, 128, 7} {
		for nq := 1; nq <= 9; nq++ {
			qs := make([][]float32, nq)
			for j := range qs {
				qs[j] = wideSlice(rng, d)
			}
			for rows := 0; rows <= 9; rows++ {
				m := MatrixFromData(d, wideSlice(rng, (rows+3)*d))
				checkMulti(t, "whole", qs, m, 0, rows)
				checkMulti(t, "interior", qs, m, 2, 2+rows)
			}
		}
	}
}

// TestDotTailPaddingMatchesDot covers the 1–3 row tails DotBatchRange and
// DotGather score as one padded Dot4 pass.
func TestDotTailPaddingMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(205))
	for _, d := range []int{4, 128, 5} {
		m := MatrixFromData(d, wideSlice(rng, 11*d))
		q := wideSlice(rng, d)
		for rows := 0; rows <= 11; rows++ {
			out := make([]float32, rows+1)
			out[rows] = 12345
			DotBatchRange(q, m, 11-rows, 11, out)
			idx := make([]int, rows)
			for i := range idx {
				idx[i] = (7 * i) % 11
			}
			gathered := make([]float32, rows+1)
			gathered[rows] = 12345
			DotGather(q, m, idx, gathered)
			for i := 0; i < rows; i++ {
				if want := Dot(q, m.Row(11-rows+i)); !sameBits(out[i], want) {
					t.Fatalf("d=%d rows=%d: range row %d = %v, Dot = %v", d, rows, i, out[i], want)
				}
				if want := Dot(q, m.Row(idx[i])); !sameBits(gathered[i], want) {
					t.Fatalf("d=%d rows=%d: gathered row %d = %v, Dot = %v", d, rows, i, gathered[i], want)
				}
			}
			if out[rows] != 12345 || gathered[rows] != 12345 {
				t.Fatalf("d=%d rows=%d: a padded lane was written past the tail", d, rows)
			}
		}
	}
}

func TestDot4x2MismatchPanics(t *testing.T) {
	q := make([]float32, 8)
	for name, f := range map[string]func(){
		"short row": func() {
			var out [2][4]float32
			Dot4x2(q, q, q, q, q, q[:4], &out)
		},
		"short output": func() {
			DotBatchRangeMulti([][]float32{q, q}, NewMatrix(4, 8), 0, 4, [][]float32{make([]float32, 4), make([]float32, 3)})
		},
		"output count": func() {
			DotBatchRangeMulti([][]float32{q, q}, NewMatrix(4, 8), 0, 4, [][]float32{make([]float32, 4)})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
