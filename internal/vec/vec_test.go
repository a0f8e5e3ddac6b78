package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDot(t *testing.T) {
	tests := []struct {
		name string
		a, b []float32
		want float32
	}{
		{"empty", nil, nil, 0},
		{"single", []float32{2}, []float32{3}, 6},
		{"orthogonal", []float32{1, 0}, []float32{0, 1}, 0},
		{"unrolled boundary 4", []float32{1, 1, 1, 1}, []float32{1, 2, 3, 4}, 10},
		{"unrolled tail", []float32{1, 1, 1, 1, 1}, []float32{1, 2, 3, 4, 5}, 15},
		{"negative", []float32{-1, 2}, []float32{3, -4}, -11},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dot(tt.a, tt.b); got != tt.want {
				t.Errorf("Dot(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths did not panic")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestDotMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(300)
		a := make([]float32, n)
		b := make([]float32, n)
		var want float64
		for i := range a {
			a[i] = rng.Float32()*2 - 1
			b[i] = rng.Float32()*2 - 1
			want += float64(a[i]) * float64(b[i])
		}
		got := float64(Dot(a, b))
		if !almostEqual(got, want, 1e-4) {
			t.Fatalf("trial %d: Dot = %v, naive = %v", trial, got, want)
		}
	}
}

func TestScaledDot(t *testing.T) {
	a := []float32{1, 1, 1, 1}
	b := []float32{2, 2, 2, 2}
	want := float32(8.0 / 2.0) // dot=8, sqrt(4)=2
	if got := ScaledDot(a, b); got != want {
		t.Errorf("ScaledDot = %v, want %v", got, want)
	}
}

func TestSoftmaxBasic(t *testing.T) {
	logits := []float32{1, 2, 3}
	out := make([]float32, 3)
	lse := Softmax(logits, out)

	var sum float32
	for _, p := range out {
		if p < 0 || p > 1 {
			t.Fatalf("softmax output %v out of [0,1]", p)
		}
		sum += p
	}
	if !almostEqual(float64(sum), 1, 1e-5) {
		t.Errorf("softmax sum = %v, want 1", sum)
	}
	if !(out[2] > out[1] && out[1] > out[0]) {
		t.Errorf("softmax not monotone: %v", out)
	}
	wantLSE := LogSumExp(logits)
	if !almostEqual(lse, wantLSE, 1e-9) {
		t.Errorf("Softmax lse = %v, LogSumExp = %v", lse, wantLSE)
	}
}

func TestSoftmaxStability(t *testing.T) {
	// Very large logits must not overflow.
	logits := []float32{1e30, 1e30, 1e30}
	out := make([]float32, 3)
	Softmax(logits, out)
	for i, p := range out {
		if math.IsNaN(float64(p)) || math.IsInf(float64(p), 0) {
			t.Fatalf("softmax[%d] = %v for huge logits", i, p)
		}
		if !almostEqual(float64(p), 1.0/3.0, 1e-5) {
			t.Errorf("softmax[%d] = %v, want 1/3", i, p)
		}
	}
}

func TestSoftmaxEmpty(t *testing.T) {
	lse := Softmax(nil, nil)
	if !math.IsInf(lse, -1) {
		t.Errorf("Softmax(empty) lse = %v, want -Inf", lse)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	// Property: softmax sums to 1 and is shift-invariant.
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		logits := make([]float32, len(raw))
		shifted := make([]float32, len(raw))
		for i, r := range raw {
			logits[i] = float32(r) / 100
			shifted[i] = logits[i] + 42.5
		}
		a := make([]float32, len(raw))
		b := make([]float32, len(raw))
		Softmax(logits, a)
		Softmax(shifted, b)
		var sum float64
		for i := range a {
			sum += float64(a[i])
			if !almostEqual(float64(a[i]), float64(b[i]), 1e-4) {
				return false
			}
		}
		return almostEqual(sum, 1, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLogSumExp(t *testing.T) {
	if got := LogSumExp([]float32{0}); !almostEqual(got, 0, 1e-9) {
		t.Errorf("LogSumExp([0]) = %v, want 0", got)
	}
	// log(e^1 + e^1) = 1 + log 2
	if got := LogSumExp([]float32{1, 1}); !almostEqual(got, 1+math.Log(2), 1e-6) {
		t.Errorf("LogSumExp([1,1]) = %v", got)
	}
	if got := LogSumExp(nil); !math.IsInf(got, -1) {
		t.Errorf("LogSumExp(empty) = %v, want -Inf", got)
	}
}

func TestMaxArgmax(t *testing.T) {
	v, i := Max([]float32{3, -1, 7, 7, 2})
	if v != 7 || i != 2 {
		t.Errorf("Max = (%v, %d), want (7, 2)", v, i)
	}
	if got := Argmax([]float32{-5, -2, -9}); got != 1 {
		t.Errorf("Argmax = %d, want 1", got)
	}
}

func TestAxpyScaleAdd(t *testing.T) {
	y := []float32{1, 2, 3}
	Axpy(2, []float32{1, 1, 1}, y)
	if y[0] != 3 || y[1] != 4 || y[2] != 5 {
		t.Errorf("Axpy result = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 1.5 {
		t.Errorf("Scale result = %v", y)
	}
	Add([]float32{1, 1, 1}, y)
	if y[0] != 2.5 {
		t.Errorf("Add result = %v", y)
	}
	Zero(y)
	if y[0] != 0 || y[2] != 0 {
		t.Errorf("Zero result = %v", y)
	}
}

func TestCosineSimilarity(t *testing.T) {
	if got := CosineSimilarity([]float32{1, 0}, []float32{2, 0}); !almostEqual(float64(got), 1, 1e-6) {
		t.Errorf("cos of parallel = %v", got)
	}
	if got := CosineSimilarity([]float32{1, 0}, []float32{0, 3}); !almostEqual(float64(got), 0, 1e-6) {
		t.Errorf("cos of orthogonal = %v", got)
	}
	if got := CosineSimilarity([]float32{0, 0}, []float32{1, 1}); got != 0 {
		t.Errorf("cos with zero vector = %v, want 0", got)
	}
}

func TestL2Distance(t *testing.T) {
	if got := L2Distance([]float32{0, 0}, []float32{3, 4}); !almostEqual(float64(got), 5, 1e-6) {
		t.Errorf("L2 = %v, want 5", got)
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	m.SetRow(0, []float32{1, 2, 3})
	m.SetRow(1, []float32{4, 5, 6})
	if m.Row(1)[2] != 6 {
		t.Errorf("Row(1)[2] = %v", m.Row(1)[2])
	}
	if m.Bytes() != 24 {
		t.Errorf("Bytes = %d, want 24", m.Bytes())
	}
}

func TestMatrixAppendGrowsFromZeroValue(t *testing.T) {
	var m Matrix
	i := m.Append([]float32{1, 2})
	j := m.Append([]float32{3, 4})
	if i != 0 || j != 1 {
		t.Fatalf("append indices = %d, %d", i, j)
	}
	if m.Cols() != 2 || m.Rows() != 2 {
		t.Fatalf("shape after append = %dx%d", m.Rows(), m.Cols())
	}
	if m.Row(1)[0] != 3 {
		t.Errorf("Row(1) = %v", m.Row(1))
	}
}

func TestMatrixAppendWrongWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong-width append")
		}
	}()
	m := NewMatrix(1, 2)
	m.Append([]float32{1, 2, 3})
}

func TestMatrixSliceSharesStorage(t *testing.T) {
	m := NewMatrix(4, 2)
	for i := 0; i < 4; i++ {
		m.SetRow(i, []float32{float32(i), float32(i)})
	}
	s := m.Slice(1, 3)
	if s.Rows() != 2 {
		t.Fatalf("slice rows = %d", s.Rows())
	}
	s.Row(0)[0] = 99
	if m.Row(1)[0] != 99 {
		t.Error("slice does not share storage")
	}
}

func TestMatrixSliceBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range slice")
		}
	}()
	NewMatrix(2, 2).Slice(0, 3)
}

func TestMatrixClone(t *testing.T) {
	m := NewMatrix(1, 2)
	m.SetRow(0, []float32{1, 2})
	c := m.Clone()
	c.Row(0)[0] = 9
	if m.Row(0)[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestMatrixFromData(t *testing.T) {
	m := MatrixFromData(2, []float32{1, 2, 3, 4})
	if m.Rows() != 2 || m.Row(1)[1] != 4 {
		t.Errorf("MatrixFromData wrong: rows=%d", m.Rows())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on non-multiple buffer")
		}
	}()
	MatrixFromData(3, []float32{1, 2, 3, 4})
}
