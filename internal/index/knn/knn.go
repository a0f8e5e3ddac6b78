// Package knn implements exact k-nearest-neighbour computation by inner
// product, a tiled parallel search, and the recall of an approximate result
// against it. It is the CPU substitute for the NVIDIA cuVS kNN construction
// the paper offloads to the GPU (§7.2): Exact plays the role of the GPU
// kernel — key tiles swept by four queries at a time through the 4-query ×
// 2-row SIMD dot kernel (vec.DotBatchRangeMulti), query chunks in parallel
// — and its serial form (workers = 1) the CPU baseline of Figure 11.
package knn

import (
	"sync"

	"repro/internal/index"
	"repro/internal/vec"
)

// exactTile is the number of key rows one query chunk sweeps before moving
// on: 512 rows of a 128-wide head are 256 KiB, small enough to stay in a
// core's L2 while every query of the chunk scores against them.
const exactTile = 512

// Exact returns, for each query row, its k highest-inner-product key rows,
// best first. Queries are split into contiguous chunks across `workers`
// goroutines (workers <= 1 means serial); each worker walks the keys in
// tiles of exactTile rows, scoring the queries of its chunk four at a time
// against a tile with vec.DotBatchRangeMulti, which reads each key once
// per four queries, before moving to the next tile. Every score is
// bitwise vec.Dot's, and each query keeps one bounded heap across tiles and
// receives its keys in ascending id order, so every heap — and every
// returned list — is exactly the one a per-key vec.Dot loop builds, for
// any worker count.
func Exact(queries, keys *vec.Matrix, k, workers int) [][]index.Candidate {
	nq, nk := queries.Rows(), keys.Rows()
	if k > nk {
		k = nk
	}
	out := make([][]index.Candidate, nq)
	if nq == 0 || nk == 0 || k <= 0 {
		return out
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	chunk := (nq + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > nq {
			hi = nq
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			heaps := make([]index.MinHeap, hi-lo)
			for i := range heaps {
				heaps[i] = make(index.MinHeap, 0, k)
			}
			var qs, tiles [4][]float32
			for j := range tiles {
				tiles[j] = make([]float32, min(exactTile, nk))
			}
			for b := 0; b < nk; b += exactTile {
				e := min(b+exactTile, nk)
				for qi := lo; qi < hi; qi += 4 {
					g := min(4, hi-qi)
					for j := 0; j < g; j++ {
						qs[j] = queries.Row(qi + j)
					}
					vec.DotBatchRangeMulti(qs[:g], keys, b, e, tiles[:g])
					for j := 0; j < g; j++ {
						h := &heaps[qi-lo+j]
						for i, s := range tiles[j][:e-b] {
							if len(*h) == k && !(s > (*h)[0].Score) {
								continue // the rejection PushBounded would make, without the call
							}
							h.PushBounded(index.Candidate{ID: int32(b + i), Score: s}, k)
						}
					}
				}
			}
			for i := range heaps {
				out[lo+i] = heaps[i].Sorted()
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// Recall computes the average fraction of true neighbours recovered by an
// approximate result, per node. truth and approx must have equal length.
func Recall(truth, approx [][]index.Candidate) float64 {
	if len(truth) == 0 {
		return 0
	}
	var total float64
	for i := range truth {
		if len(truth[i]) == 0 {
			total++
			continue
		}
		set := make(map[int32]bool, len(approx[i]))
		for _, c := range approx[i] {
			set[c.ID] = true
		}
		hit := 0
		for _, c := range truth[i] {
			if set[c.ID] {
				hit++
			}
		}
		total += float64(hit) / float64(len(truth[i]))
	}
	return total / float64(len(truth))
}
