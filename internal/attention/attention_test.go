package attention

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func randomKV(rng *rand.Rand, n, d int) (*vec.Matrix, *vec.Matrix) {
	K := vec.NewMatrix(n, d)
	V := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			K.Row(i)[j] = rng.Float32()*4 - 2
			V.Row(i)[j] = rng.Float32()*4 - 2
		}
	}
	return K, V
}

func randomQ(rng *rand.Rand, d int) []float32 {
	q := make([]float32, d)
	for j := range q {
		q[j] = rng.Float32()*4 - 2
	}
	return q
}

func maxAbsDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i] - b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func TestWeightsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	K, _ := randomKV(rng, 37, 16)
	w := Weights(randomQ(rng, 16), K)
	var s float64
	for _, x := range w {
		s += float64(x)
	}
	if math.Abs(s-1) > 1e-5 {
		t.Errorf("weights sum = %v", s)
	}
}

func TestFullMatchesManual(t *testing.T) {
	// Two tokens, orthogonal keys: weights computable by hand.
	K := vec.NewMatrix(2, 4)
	V := vec.NewMatrix(2, 4)
	K.SetRow(0, []float32{2, 0, 0, 0})
	K.SetRow(1, []float32{0, 2, 0, 0})
	V.SetRow(0, []float32{1, 0, 0, 0})
	V.SetRow(1, []float32{0, 1, 0, 0})
	q := []float32{2, 0, 0, 0}
	// logits = [4/2, 0] = [2, 0]; w0 = e²/(e²+1).
	w0 := math.Exp(2) / (math.Exp(2) + 1)
	out := Full(q, K, V)
	if math.Abs(float64(out[0])-w0) > 1e-5 {
		t.Errorf("out[0] = %v, want %v", out[0], w0)
	}
	if math.Abs(float64(out[1])-(1-w0)) > 1e-5 {
		t.Errorf("out[1] = %v, want %v", out[1], 1-w0)
	}
}

// TestFullMatchesZeroSkippingLoop pins Full's value mix (one weighted sum
// over every row) against the loop it replaced, which skipped rows whose
// softmax weight underflowed to exactly 0. The accumulator starts at +0 and
// so never holds −0, and adding the ±0 a zero weight contributes leaves it
// unchanged: the two agree bit for bit for finite values.
func TestFullMatchesZeroSkippingLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, d := range []int{128, 7} {
		K, V := randomKV(rng, 301, d)
		q := randomQ(rng, d)
		// Push a third of the keys far from q: their logits sit hundreds
		// below the maximum, so float32 weights underflow to 0 or to
		// subnormals.
		for i := 0; i < K.Rows(); i += 3 {
			for j, x := range q {
				K.Row(i)[j] = -x * float32(2+i%40)
			}
		}
		w := Weights(q, K)
		zeros := 0
		want := make([]float32, d)
		for i, a := range w {
			if a != 0 {
				vec.Axpy(a, V.Row(i), want)
			} else {
				zeros++
			}
		}
		if zeros == 0 {
			t.Fatalf("d=%d: no weight underflowed to 0", d)
		}
		got := Full(q, K, V)
		for j := range want {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				t.Fatalf("d=%d: out[%d] = %v, zero-skipping loop = %v (%d zero weights)",
					d, j, got[j], want[j], zeros)
			}
		}
	}
}

func TestFullOnlineEqualsFull(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(200)
		d := 8 + rng.Intn(32)
		K, V := randomKV(rng, n, d)
		q := randomQ(rng, d)
		a := Full(q, K, V)
		b := FullOnline(q, K, V)
		if diff := maxAbsDiff(a, b); diff > 1e-4 {
			t.Fatalf("trial %d (n=%d d=%d): |Full - FullOnline| = %v", trial, n, d, diff)
		}
	}
}

func TestFullOnlineEmpty(t *testing.T) {
	K := vec.NewMatrix(0, 4)
	V := vec.NewMatrix(0, 4)
	out := FullOnline([]float32{1, 1, 1, 1}, K, V)
	for _, v := range out {
		if v != 0 {
			t.Fatalf("FullOnline on empty context = %v", out)
		}
	}
}

func TestMismatchedKVPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched K/V rows")
		}
	}()
	Full([]float32{1}, vec.NewMatrix(2, 1), vec.NewMatrix(3, 1))
}

// TestMergePartialsEqualsFull is the central data-centric engine property
// (§7.2): partial attention over disjoint subsets, merged by LSE, must be
// exactly full attention over the union.
func TestMergePartialsEqualsFull(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(150)
		d := 8 + rng.Intn(24)
		K, V := randomKV(rng, n, d)
		q := randomQ(rng, d)

		// Random 3-way disjoint partition.
		var s0, s1, s2 []int
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				s0 = append(s0, i)
			case 1:
				s1 = append(s1, i)
			default:
				s2 = append(s2, i)
			}
		}
		merged := Merge(Over(q, K, V, s0), Over(q, K, V, s1), Over(q, K, V, s2))
		full := Full(q, K, V)
		if diff := maxAbsDiff(merged, full); diff > 1e-4 {
			t.Fatalf("trial %d: |merged - full| = %v", trial, diff)
		}
	}
}

func TestMergeWithEmptyPartial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	K, V := randomKV(rng, 20, 8)
	q := randomQ(rng, 8)
	all := make([]int, 20)
	for i := range all {
		all[i] = i
	}
	merged := Merge(Over(q, K, V, all), Over(q, K, V, nil))
	full := Full(q, K, V)
	if diff := maxAbsDiff(merged, full); diff > 1e-5 {
		t.Errorf("merge with empty partial diff = %v", diff)
	}
}

func TestMergeAllEmpty(t *testing.T) {
	out := Merge(Partial{Output: make([]float32, 4), LSE: math.Inf(-1)})
	for _, v := range out {
		if v != 0 {
			t.Fatalf("merge of empty partials = %v", out)
		}
	}
}

func TestMergeNoPartialsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for Merge()")
		}
	}()
	Merge()
}

func TestOverRangeMatchesOver(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	K, V := randomKV(rng, 50, 8)
	q := randomQ(rng, 8)
	idx := []int{10, 11, 12, 13, 14}
	a := Over(q, K, V, idx)
	b := OverRange(q, K, V, 10, 15)
	if diff := maxAbsDiff(a.Output, b.Output); diff > 1e-6 {
		t.Errorf("OverRange output diff = %v", diff)
	}
	if math.Abs(a.LSE-b.LSE) > 1e-9 {
		t.Errorf("LSE %v != %v", a.LSE, b.LSE)
	}
}

func TestOverRangeBoundsPanics(t *testing.T) {
	K := vec.NewMatrix(5, 4)
	V := vec.NewMatrix(5, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad range")
		}
	}()
	OverRange([]float32{1, 1, 1, 1}, K, V, 3, 9)
}

func TestSparseOnFullIndexEqualsFull(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	K, V := randomKV(rng, 40, 8)
	q := randomQ(rng, 8)
	idx := make([]int, 40)
	for i := range idx {
		idx[i] = i
	}
	if diff := maxAbsDiff(Sparse(q, K, V, idx), Full(q, K, V)); diff > 1e-5 {
		t.Errorf("Sparse(all) != Full, diff = %v", diff)
	}
}

func TestRecovery(t *testing.T) {
	w := []float32{0.5, 0.3, 0.1, 0.1}
	if got := Recovery(w, []int{0, 1}); math.Abs(got-0.8) > 1e-6 {
		t.Errorf("Recovery = %v", got)
	}
	if got := Recovery(w, nil); got != 0 {
		t.Errorf("Recovery(empty) = %v", got)
	}
}

func TestTokensForRecovery(t *testing.T) {
	w := []float32{0.1, 0.5, 0.1, 0.3}
	tests := []struct {
		target float64
		want   int
	}{
		{0.4, 1},
		{0.5, 1},
		{0.6, 2},
		{0.85, 3},
		{1.0, 4},
		{0, 0},
	}
	for _, tt := range tests {
		if got := TokensForRecovery(w, tt.target); got != tt.want {
			t.Errorf("TokensForRecovery(%v) = %d, want %d", tt.target, got, tt.want)
		}
	}
	if got := TokensForRecovery(nil, 0.5); got != 0 {
		t.Errorf("TokensForRecovery(empty) = %d", got)
	}
}

func TestWindowIndices(t *testing.T) {
	w := Window{Sinks: 2, Recent: 3}
	got := w.Indices(10)
	want := []int{0, 1, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("Indices = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices = %v, want %v", got, want)
		}
	}
	if w.Size(10) != 5 {
		t.Errorf("Size = %d", w.Size(10))
	}
}

func TestWindowCoversWholeContext(t *testing.T) {
	w := Window{Sinks: 4, Recent: 8}
	got := w.Indices(6)
	if len(got) != 6 {
		t.Fatalf("Indices over short context = %v", got)
	}
	if w.Size(6) != 6 {
		t.Errorf("Size = %d", w.Size(6))
	}
	if !w.Contains(3, 6) {
		t.Error("Contains(3) false for fully covered context")
	}
}

func TestWindowContains(t *testing.T) {
	w := Window{Sinks: 2, Recent: 2}
	n := 10
	for i, want := range map[int]bool{0: true, 1: true, 2: false, 7: false, 8: true, 9: true, -1: false, 10: false} {
		if got := w.Contains(i, n); got != want {
			t.Errorf("Contains(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestWindowOutside(t *testing.T) {
	w := Window{Sinks: 2, Recent: 2}
	got := w.Outside([]int{0, 3, 5, 9}, 10)
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("Outside = %v", got)
	}
}

// TestEngineEqualsFullWhenUnionIsEverything verifies the data-centric path
// against plain full attention when window ∪ retrieved covers the context.
func TestEngineEqualsFullWhenUnionIsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	K, V := randomKV(rng, 60, 8)
	q := randomQ(rng, 8)
	var middle []int
	for i := 4; i < 52; i++ {
		middle = append(middle, i)
	}
	e := &Engine{Window: Window{Sinks: 4, Recent: 8}}
	got := e.SparseWindowed(q, K, V, middle)
	full := Full(q, K, V)
	if diff := maxAbsDiff(got, full); diff > 1e-4 {
		t.Errorf("engine vs full diff = %v", diff)
	}
}

func TestEngineDedupesRetrieved(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	K, V := randomKV(rng, 30, 8)
	q := randomQ(rng, 8)
	e := &Engine{Window: Window{Sinks: 2, Recent: 2}}
	// Retrieved overlaps the window; union must not double-count.
	got := e.SparseWindowed(q, K, V, []int{0, 1, 15, 28, 29})
	want := Sparse(q, K, V, []int{0, 1, 15, 28, 29})
	if diff := maxAbsDiff(got, want); diff > 1e-4 {
		t.Errorf("dedup diff = %v", diff)
	}
	u := e.Union([]int{0, 15}, 30)
	if len(u) != 5 { // window {0,1,28,29} + {15}
		t.Errorf("Union = %v", u)
	}
}

func TestMergeQuickProperty(t *testing.T) {
	// Property: splitting a context at any point and merging the two halves
	// equals full attention.
	rng := rand.New(rand.NewSource(9))
	K, V := randomKV(rng, 64, 8)
	q := randomQ(rng, 8)
	full := Full(q, K, V)
	f := func(cutRaw uint8) bool {
		cut := int(cutRaw) % 65
		m := Merge(OverRange(q, K, V, 0, cut), OverRange(q, K, V, cut, 64))
		return maxAbsDiff(m, full) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
