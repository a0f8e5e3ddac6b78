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

func TestNNDescentRecall(t *testing.T) {
	// On clustered data NN-Descent should achieve high recall vs exact.
	rng := rand.New(rand.NewSource(3))
	const n, d, k = 400, 16, 10
	keys := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		base := (i % 8) * 2
		for j := 0; j < d; j++ {
			keys.Row(i)[j] = rng.Float32() * 0.3
		}
		keys.Row(i)[base%d] += 2
	}
	truth := Exact(keys, keys, k+1, 2) // +1: self is always the top hit
	for i := range truth {
		// Drop self-matches for a fair comparison.
		filtered := truth[i][:0:0]
		for _, c := range truth[i] {
			if int(c.ID) != i {
				filtered = append(filtered, c)
			}
		}
		if len(filtered) > k {
			filtered = filtered[:k]
		}
		truth[i] = filtered
	}
	approx := NNDescent(keys, NNDescentConfig{K: k, Seed: 7, Workers: 2})
	if r := Recall(truth, approx); r < 0.80 {
		t.Errorf("NN-Descent recall = %v, want >= 0.80", r)
	}
}

func TestNNDescentShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	keys := randomMatrix(rng, 50, 8)
	got := NNDescent(keys, NNDescentConfig{K: 5, Seed: 1})
	if len(got) != 50 {
		t.Fatalf("graph size = %d", len(got))
	}
	for i, nb := range got {
		if len(nb) != 5 {
			t.Fatalf("node %d has %d neighbours", i, len(nb))
		}
		seen := map[int32]bool{}
		for _, c := range nb {
			if int(c.ID) == i {
				t.Fatalf("node %d is its own neighbour", i)
			}
			if seen[c.ID] {
				t.Fatalf("node %d has duplicate neighbour %d", i, c.ID)
			}
			seen[c.ID] = true
		}
		for j := 1; j < len(nb); j++ {
			if nb[j-1].Score < nb[j].Score {
				t.Fatalf("node %d neighbours not sorted", i)
			}
		}
	}
}

func TestNNDescentTinyInputs(t *testing.T) {
	if got := NNDescent(vec.NewMatrix(0, 4), NNDescentConfig{K: 3}); len(got) != 0 {
		t.Errorf("empty input: %v", got)
	}
	one := vec.NewMatrix(1, 4)
	if got := NNDescent(one, NNDescentConfig{K: 3}); len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("single point: %v", got)
	}
	rng := rand.New(rand.NewSource(5))
	three := randomMatrix(rng, 3, 4)
	got := NNDescent(three, NNDescentConfig{K: 5})
	for i, nb := range got {
		if len(nb) != 2 {
			t.Errorf("node %d: %d neighbours, want 2 (k clamped)", i, len(nb))
		}
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
