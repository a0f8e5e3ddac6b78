package knn

import (
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/vec"
)

func randomMatrix(rng *rand.Rand, n, d int) *vec.Matrix {
	m := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			m.Row(i)[j] = rng.Float32()*2 - 1
		}
	}
	return m
}

func TestExactBasic(t *testing.T) {
	keys := vec.NewMatrix(3, 2)
	keys.SetRow(0, []float32{1, 0})
	keys.SetRow(1, []float32{0, 1})
	keys.SetRow(2, []float32{1, 1})
	queries := vec.NewMatrix(1, 2)
	queries.SetRow(0, []float32{1, 0})
	got := Exact(queries, keys, 2, 1)
	if len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("Exact shape wrong: %v", got)
	}
	// Scores: k0=1, k1=0, k2=1. Top-2 by score: {0 or 2} then the other.
	if got[0][0].Score != 1 || got[0][1].Score != 1 {
		t.Errorf("Exact top-2 = %v", got[0])
	}
}

func TestExactParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := randomMatrix(rng, 300, 8)
	queries := randomMatrix(rng, 40, 8)
	a := Exact(queries, keys, 10, 1)
	b := Exact(queries, keys, 10, 4)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("query %d: lengths differ", i)
		}
		for j := range a[i] {
			if a[i][j].Score != b[i][j].Score {
				t.Fatalf("query %d rank %d: %v != %v", i, j, a[i][j], b[i][j])
			}
		}
	}
}

func TestExactEmptyInputs(t *testing.T) {
	keys := vec.NewMatrix(0, 4)
	queries := vec.NewMatrix(0, 4)
	if got := Exact(queries, keys, 5, 2); len(got) != 0 {
		t.Errorf("Exact on empty = %v", got)
	}
	q2 := vec.NewMatrix(2, 4)
	if got := Exact(q2, keys, 5, 2); len(got) != 2 || got[0] != nil {
		t.Errorf("Exact with empty keys = %v", got)
	}
}

func TestExactKClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	keys := randomMatrix(rng, 5, 4)
	queries := randomMatrix(rng, 1, 4)
	got := Exact(queries, keys, 100, 1)
	if len(got[0]) != 5 {
		t.Errorf("k>n returned %d", len(got[0]))
	}
}

func TestRecall(t *testing.T) {
	truth := [][]index.Candidate{{{ID: 1}, {ID: 2}}, {{ID: 0}}}
	approx := [][]index.Candidate{{{ID: 1}, {ID: 9}}, {{ID: 0}}}
	if got := Recall(truth, approx); got != 0.75 {
		t.Errorf("Recall = %v, want 0.75", got)
	}
	if got := Recall(nil, nil); got != 0 {
		t.Errorf("Recall(empty) = %v", got)
	}
	if got := Recall([][]index.Candidate{{}}, [][]index.Candidate{{}}); got != 1 {
		t.Errorf("Recall with empty truth row = %v, want 1", got)
	}
}

// scalarExact is the reference Exact is pinned to: one vec.Dot per (query,
// key) pair, pushed in ascending key id into one bounded heap per query.
func scalarExact(queries, keys *vec.Matrix, k int) [][]index.Candidate {
	out := make([][]index.Candidate, queries.Rows())
	for qi := range out {
		h := make(index.MinHeap, 0, k)
		for i := 0; i < keys.Rows(); i++ {
			h.PushBounded(index.Candidate{ID: int32(i), Score: vec.Dot(queries.Row(qi), keys.Row(i))}, k)
		}
		out[qi] = h.Sorted()
	}
	return out
}

// TestExactMatchesScalarReference pins the tiled kernel path to the scalar
// reference — ids, score bits and order — across tile splits (nk below, at,
// and not a multiple of the tile), k > nk, widths on and off the SIMD
// kernel, and 1–3 workers.
func TestExactMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct{ nq, nk, d, k int }{
		{7, 3, 128, 16},                 // k > nk
		{13, exactTile, 128, 16},        // one full tile
		{23, 2*exactTile + 37, 128, 16}, // partial last tile
		{9, exactTile + 1, 12, 5},       // one-row last tile
		{11, 700, 7, 8},                 // width off the kernel
	} {
		queries := randomMatrix(rng, tc.nq, tc.d)
		keys := randomMatrix(rng, tc.nk, tc.d)
		// Duplicate keys force score ties, which only id order breaks.
		copy(keys.Row(tc.nk-1), keys.Row(0))
		want := scalarExact(queries, keys, min(tc.k, tc.nk))
		for workers := 1; workers <= 3; workers++ {
			got := Exact(queries, keys, tc.k, workers)
			for qi := range want {
				if len(got[qi]) != len(want[qi]) {
					t.Fatalf("%+v workers=%d query %d: %d neighbours, want %d", tc, workers, qi, len(got[qi]), len(want[qi]))
				}
				for j := range want[qi] {
					if got[qi][j] != want[qi][j] {
						t.Fatalf("%+v workers=%d query %d rank %d: %v, want %v", tc, workers, qi, j, got[qi][j], want[qi][j])
					}
				}
			}
		}
	}
}
