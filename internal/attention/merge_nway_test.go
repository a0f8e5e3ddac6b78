package attention

import (
	"math"
	"math/rand"
	"testing"
)

// Property tests for the N-way log-sum-exp Merge that a cluster router uses
// to fold range-shard span sessions' partials: a context partitioned into K
// contiguous shards, each reduced to a Partial, must merge to the same
// output as one softmax over all rows — for any K, in any order, on both
// the fp32 and the SQ8 partial paths.

// spansOf splits [0, n) into k contiguous near-equal ranges.
func spansOf(n, k int) [][2]int {
	spans := make([][2]int, k)
	base, rem := n/k, n%k
	lo := 0
	for i := range spans {
		size := base
		if i < rem {
			size++
		}
		spans[i] = [2]int{lo, lo + size}
		lo += size
	}
	return spans
}

func TestMergeKShardsMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n, d = 257, 32
	K, V := randomKV(rng, n, d)
	for _, k := range []int{1, 2, 3, 5, 8} {
		for trial := 0; trial < 5; trial++ {
			q := randomQ(rng, d)
			want := Full(q, K, V)
			parts := make([]Partial, k)
			for i, sp := range spansOf(n, k) {
				parts[i] = OverRange(q, K, V, sp[0], sp[1])
			}
			got := Merge(parts...)
			if diff := maxAbsDiff(want, got); diff > 1e-4 {
				t.Fatalf("k=%d trial %d: %d-shard merge diverges from full softmax by %v", k, trial, k, diff)
			}
		}
	}
}

func TestMergeOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	const n, d, k = 193, 16, 6
	K, V := randomKV(rng, n, d)
	q := randomQ(rng, d)
	parts := make([]Partial, k)
	for i, sp := range spansOf(n, k) {
		parts[i] = OverRange(q, K, V, sp[0], sp[1])
	}
	base := Merge(parts...)
	for trial := 0; trial < 8; trial++ {
		shuffled := make([]Partial, k)
		copy(shuffled, parts)
		rng.Shuffle(k, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := Merge(shuffled...)
		if diff := maxAbsDiff(base, got); diff > 1e-5 {
			t.Fatalf("trial %d: merge order changed the output by %v", trial, diff)
		}
	}
}

// TestMergeSkipsEmptyShards: a shard whose candidate list is empty yields
// an identity Partial (LSE = -Inf) that must not perturb the merge — the
// router's fold relies on this when a span contributes no rows.
func TestMergeSkipsEmptyShards(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	const n, d = 64, 16
	K, V := randomKV(rng, n, d)
	q := randomQ(rng, d)
	var sc Scratch
	full := OverRangeScratch(&sc, q, K, V, 0, n)
	empty := OverScratch(&sc, q, K, V, nil)
	if !math.IsInf(float64(empty.LSE), -1) {
		t.Fatalf("empty partial LSE = %v, want -Inf", empty.LSE)
	}
	got := Merge(empty, full, empty, empty)
	if diff := maxAbsDiff(full.Output, got); diff != 0 {
		t.Fatalf("empty shards perturbed the merge by %v", diff)
	}
}

// TestMergeQ8ShardsMatchesQ8Full: the sharded fold over quantized partials
// (OverQ8Scratch per shard) merges to the same output as one quantized
// softmax over all rows — the SQ8 decode path shards without widening its
// error bound.
func TestMergeQ8ShardsMatchesQ8Full(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	const n, d = 301, 32
	_, qK, V := quantFixture(rng, n, d)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	for _, k := range []int{2, 4, 8} {
		for trial := 0; trial < 5; trial++ {
			q := randomQ(rng, d)
			want := OverQ8(q, qK, V, all)
			parts := make([]Partial, k)
			scs := make([]Scratch, k)
			for i, sp := range spansOf(n, k) {
				parts[i] = OverQ8Scratch(&scs[i], q, qK, V, all[sp[0]:sp[1]])
			}
			got := Merge(parts...)
			if diff := maxAbsDiff(want.Output, got); diff > 1e-4 {
				t.Fatalf("k=%d trial %d: sharded Q8 merge diverges from whole-range Q8 by %v", k, trial, diff)
			}
		}
	}
}
