package attention

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

func randKV(rng *rand.Rand, n, d int) (*vec.Matrix, *vec.Matrix) {
	K, V := vec.NewMatrix(n, d), vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			K.Row(i)[j] = rng.Float32()*2 - 1
			V.Row(i)[j] = rng.Float32()*2 - 1
		}
	}
	return K, V
}

func randQ(rng *rand.Rand, d int) []float32 {
	q := make([]float32, d)
	for i := range q {
		q[i] = rng.Float32()*2 - 1
	}
	return q
}

// TestScratchFormsBitwiseMatchAllocating pins that every scratch kernel is
// bitwise-identical to its allocating form — mixing paths must never change
// outputs.
func TestScratchFormsBitwiseMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	K, V := randKV(rng, 300, 16)
	q := randQ(rng, 16)
	idx := []int{0, 299, 17, 42, 5}
	var sc Scratch

	// Run each scratch form twice so buffer reuse (dirty arenas) is covered.
	for pass := 0; pass < 2; pass++ {
		checkSlices := func(name string, got, want []float32) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s[%d]: %v != %v", name, i, got[i], want[i])
				}
			}
		}
		checkSlices("Weights", WeightsScratch(&sc, q, K), Weights(q, K))
		checkSlices("Full", FullScratch(&sc, q, K, V), Full(q, K, V))

		ps := OverScratch(&sc, q, K, V, idx)
		pa := Over(q, K, V, idx)
		if ps.LSE != pa.LSE || ps.Count != pa.Count {
			t.Fatalf("Over: LSE/Count diverge: %+v vs %+v", ps, pa)
		}
		checkSlices("Over.Output", ps.Output, pa.Output)

		rs := OverRangeScratch(&sc, q, K, V, 20, 190)
		ra := OverRange(q, K, V, 20, 190)
		if rs.LSE != ra.LSE || rs.Count != ra.Count {
			t.Fatalf("OverRange: LSE/Count diverge")
		}
		checkSlices("OverRange.Output", rs.Output, ra.Output)
	}
}

func TestMergeIntoMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	K, V := randKV(rng, 120, 8)
	q := randQ(rng, 8)
	a := Over(q, K, V, []int{1, 2, 3})
	b := OverRange(q, K, V, 50, 100)
	empty := Over(q, K, V, nil)

	for _, parts := range [][]Partial{
		{a, b},
		{a, empty},
		{empty, empty},
		{b, a, empty},
	} {
		want := Merge(parts...)
		dst := make([]float32, len(want))
		for i := range dst {
			dst[i] = 99 // MergeInto must zero dst first
		}
		got := MergeInto(dst, parts)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("MergeInto[%d] = %v, Merge = %v", i, got[i], want[i])
			}
		}
	}
}

func TestOverScratchEmptyIdx(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	K, V := randKV(rng, 10, 4)
	q := randQ(rng, 4)
	var sc Scratch
	p := OverScratch(&sc, q, K, V, nil)
	if !math.IsInf(p.LSE, -1) || len(p.Output) != 4 {
		t.Fatalf("empty partial wrong: %+v", p)
	}
	for _, v := range p.Output {
		if v != 0 {
			t.Fatal("empty partial output must be zeroed")
		}
	}
}

func TestTokensForRecoveryScratchMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := make([]float32, 200)
	var sum float32
	for i := range w {
		w[i] = rng.Float32()
		sum += w[i]
	}
	vec.Scale(1/sum, w)
	var sc Scratch
	for _, target := range []float64{0, 0.1, 0.5, 0.9, 1.1} {
		if got, want := TokensForRecoveryScratch(&sc, w, target), TokensForRecovery(w, target); got != want {
			t.Fatalf("target %v: scratch %d, allocating %d", target, got, want)
		}
	}
	// The scratch form must not mutate the caller's weights (the bug the
	// defensive copy in TokensForRecovery guarded against).
	before := append([]float32(nil), w...)
	TokensForRecoveryScratch(&sc, w, 0.5)
	for i := range w {
		if w[i] != before[i] {
			t.Fatal("TokensForRecoveryScratch mutated its input")
		}
	}
}

// TestScratchZeroAllocWarm is the arena regression guard: once warm, the
// scratch kernels must not allocate at all.
func TestScratchZeroAllocWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	K, V := randKV(rng, 512, 32)
	q := randQ(rng, 32)
	idx := []int{0, 511, 100, 3}
	var sc1, sc2 Scratch
	dst := make([]float32, 32)
	parts := make([]Partial, 2)

	// Warm the arenas.
	parts[0] = OverScratch(&sc1, q, K, V, idx)
	parts[1] = OverRangeScratch(&sc2, q, K, V, 0, 512)
	MergeInto(dst, parts)
	TokensForRecoveryScratch(&sc1, parts[1].Output, 0.5)

	allocs := testing.AllocsPerRun(20, func() {
		parts[0] = OverScratch(&sc1, q, K, V, idx)
		parts[1] = OverRangeScratch(&sc2, q, K, V, 0, 512)
		MergeInto(dst, parts)
	})
	if allocs != 0 {
		t.Fatalf("warm scratch attention allocated %.1f times per run, want 0", allocs)
	}
}

// TestOverLogitsMatchesOverScratch pins the full plan's group prefix
// partial: logits from one multi-query pass, handed to OverLogitsScratch
// per head, give exactly OverScratch's partial over the index list
// lo..hi-1 and OverRangeScratch's over [lo, hi) — output, LSE and count.
func TestOverLogitsMatchesOverScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	K, V := randKV(rng, 300, 16)
	qs := [][]float32{randQ(rng, 16), randQ(rng, 16), randQ(rng, 16)}
	var sc, scWant Scratch
	for _, span := range [][2]int{{0, 300}, {0, 257}, {17, 18}, {40, 40}} {
		lo, hi := span[0], span[1]
		rows := make([][]float32, len(qs))
		for h := range rows {
			rows[h] = make([]float32, hi-lo)
		}
		vec.DotBatchRangeMulti(qs, K, lo, hi, rows)
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		for h, q := range qs {
			got := OverLogitsScratch(&sc, rows[h], len(q), V, lo, hi)
			for _, want := range []Partial{OverScratch(&scWant, q, K, V, idx), OverRangeScratch(nil, q, K, V, lo, hi)} {
				if got.LSE != want.LSE || got.Count != want.Count {
					t.Fatalf("[%d,%d) head %d: LSE/Count %v/%d vs %v/%d", lo, hi, h, got.LSE, got.Count, want.LSE, want.Count)
				}
				for i := range want.Output {
					if got.Output[i] != want.Output[i] {
						t.Fatalf("[%d,%d) head %d dim %d: %v != %v", lo, hi, h, i, got.Output[i], want.Output[i])
					}
				}
			}
		}
	}
}
