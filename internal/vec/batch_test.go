package vec

import (
	"math/rand"
	"testing"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.data {
		m.data[i] = rng.Float32()*2 - 1
	}
	return m
}

func randSlice(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = rng.Float32()*2 - 1
	}
	return out
}

// TestDotBatchBitwiseMatchesPerRow pins the contract the decode path relies
// on: blocked scoring is bitwise-identical to Dot against each Row, for row
// counts that cover every block/tail split.
func TestDotBatchBitwiseMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, rows := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65} {
		m := randMatrix(rng, rows, 24)
		q := randSlice(rng, 24)
		out := make([]float32, rows)
		DotBatch(q, m, out)
		for i := 0; i < rows; i++ {
			if want := Dot(q, m.Row(i)); out[i] != want {
				t.Fatalf("rows=%d: DotBatch[%d] = %v, Dot(Row) = %v", rows, i, out[i], want)
			}
		}
	}
}

func TestDotBatchRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randMatrix(rng, 40, 16)
	q := randSlice(rng, 16)
	for _, span := range [][2]int{{0, 40}, {3, 29}, {7, 7}, {39, 40}, {0, 3}} {
		lo, hi := span[0], span[1]
		out := make([]float32, hi-lo)
		DotBatchRange(q, m, lo, hi, out)
		for i := range out {
			if want := Dot(q, m.Row(lo+i)); out[i] != want {
				t.Fatalf("span [%d,%d): out[%d] = %v, want %v", lo, hi, i, out[i], want)
			}
		}
	}
}

func TestDotBatchRangeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range DotBatchRange did not panic")
		}
	}()
	m := NewMatrix(4, 2)
	DotBatchRange([]float32{1, 2}, m, 2, 5, make([]float32, 3))
}

func TestDotGather(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randMatrix(rng, 50, 8)
	q := randSlice(rng, 8)
	idx := []int{49, 0, 7, 7, 23}
	out := make([]float32, len(idx))
	DotGather(q, m, idx, out)
	for j, i := range idx {
		if want := Dot(q, m.Row(i)); out[j] != want {
			t.Fatalf("gather[%d] (row %d) = %v, want %v", j, i, out[j], want)
		}
	}
}

func TestWeightedSumRangeMatchesAxpyLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randMatrix(rng, 30, 12)
	w := randSlice(rng, 30)
	for _, span := range [][2]int{{0, 30}, {5, 21}, {11, 11}, {3, 4}, {1, 8}} {
		lo, hi := span[0], span[1]
		got := make([]float32, 12)
		WeightedSumRange(w[:hi-lo], m, lo, hi, got)
		want := make([]float32, 12)
		for i := lo; i < hi; i++ {
			Axpy(w[i-lo], m.Row(i), want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("span [%d,%d) dim %d: %v != %v", lo, hi, i, got[i], want[i])
			}
		}
	}
}

func TestWeightedSumGatherMatchesAxpyLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randMatrix(rng, 30, 12)
	idx := []int{2, 29, 2, 0, 15}
	w := randSlice(rng, len(idx))
	got := make([]float32, 12)
	WeightedSumGather(w, m, idx, got)
	want := make([]float32, 12)
	for j, i := range idx {
		Axpy(w[j], m.Row(i), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dim %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestRowSpan(t *testing.T) {
	m := NewMatrix(5, 3)
	for i := range m.data {
		m.data[i] = float32(i)
	}
	span := m.RowSpan(1, 4)
	if len(span) != 9 {
		t.Fatalf("span length %d, want 9", len(span))
	}
	if span[0] != 3 || span[8] != 11 {
		t.Fatalf("span aliases wrong storage: %v", span)
	}
	span[0] = -1
	if m.Row(1)[0] != -1 {
		t.Fatal("RowSpan must alias matrix storage")
	}
	if got := len(m.RowSpan(2, 2)); got != 0 {
		t.Fatalf("empty span length %d", got)
	}
}

// TestBatchKernelsDoNotAllocate is the regression guard for the arena
// discipline: scoring and accumulating through the batch kernels must be
// allocation-free.
func TestBatchKernelsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randMatrix(rng, 256, 32)
	q := randSlice(rng, 32)
	w := randSlice(rng, 256)
	scores := make([]float32, 256)
	acc := make([]float32, 32)
	idx := []int{1, 17, 200, 31}
	allocs := testing.AllocsPerRun(20, func() {
		DotBatch(q, m, scores)
		DotGather(q, m, idx, scores)
		WeightedSumRange(w, m, 0, 256, acc)
		WeightedSumGather(w, m, idx, acc)
	})
	if allocs != 0 {
		t.Fatalf("batch kernels allocated %.1f times per run, want 0", allocs)
	}
}
