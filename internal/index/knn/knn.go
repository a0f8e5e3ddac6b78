// Package knn implements k-nearest-neighbour computation by inner product:
// an exact tiled parallel search and an approximate NN-Descent graph
// builder. It is the CPU substitute for the NVIDIA cuVS kNN construction
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

// NNDescentConfig tunes the approximate graph build.
type NNDescentConfig struct {
	K          int // neighbours per node
	Iterations int // maximum refinement rounds (default 8)
	SampleRate int // candidates sampled per node per round (default 2*K)
	Seed       uint64
	Workers    int
}

func (c *NNDescentConfig) defaults() {
	if c.Iterations <= 0 {
		c.Iterations = 8
	}
	if c.SampleRate <= 0 {
		c.SampleRate = 2 * c.K
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
}

// NNDescent builds an approximate k-NN graph over the rows of keys using
// the NN-Descent local-join heuristic [58]: neighbours of neighbours are
// likely neighbours. Returns per-node candidate lists, best first.
func NNDescent(keys *vec.Matrix, cfg NNDescentConfig) [][]index.Candidate {
	cfg.defaults()
	n := keys.Rows()
	if n == 0 || cfg.K <= 0 {
		return make([][]index.Candidate, n)
	}
	k := cfg.K
	if k > n-1 {
		k = n - 1
	}
	if k <= 0 {
		// Single point: no neighbours.
		return make([][]index.Candidate, n)
	}

	// Initialize with random neighbours.
	nbrs := make([]index.MinHeap, n)
	rng := splitmixState(cfg.Seed)
	for i := 0; i < n; i++ {
		h := make(index.MinHeap, 0, k)
		for len(h) < k {
			j := int(rng.next() % uint64(n))
			if j == i || contains(h, int32(j)) {
				continue
			}
			h.PushBounded(index.Candidate{ID: int32(j), Score: vec.Dot(keys.Row(i), keys.Row(j))}, k)
		}
		nbrs[i] = h
	}

	for iter := 0; iter < cfg.Iterations; iter++ {
		// Build the reverse neighbour lists for this round, plus an immutable
		// snapshot of every neighbour list. Workers sample *other* nodes'
		// lists while updating their own; joining against the round-start
		// snapshot (the standard NN-Descent formulation) keeps those
		// cross-node reads race-free and makes parallel builds deterministic.
		reverse := make([][]int32, n)
		flat := make([]index.Candidate, 0, n*k)
		snap := make([][]index.Candidate, n)
		for i := 0; i < n; i++ {
			for _, c := range nbrs[i] {
				reverse[c.ID] = append(reverse[c.ID], int32(i))
			}
			off := len(flat)
			flat = append(flat, nbrs[i]...)
			snap[i] = flat[off:len(flat):len(flat)]
		}
		updates := 0
		var mu sync.Mutex
		var wg sync.WaitGroup
		chunk := (n + cfg.Workers - 1) / cfg.Workers
		for w := 0; w < cfg.Workers; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > n {
				hi = n
			}
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int, seed uint64) {
				defer wg.Done()
				local := splitmixState(seed)
				localUpdates := 0
				for i := lo; i < hi; i++ {
					// Candidate pool: neighbours + reverse neighbours +
					// neighbours-of-neighbours (sampled).
					pool := make([]int32, 0, 3*k)
					for _, c := range nbrs[i] {
						pool = append(pool, c.ID)
					}
					pool = append(pool, reverse[i]...)
					for s := 0; s < cfg.SampleRate; s++ {
						if len(pool) == 0 {
							break
						}
						via := pool[local.next()%uint64(len(pool))]
						cand := snap[via]
						if len(cand) > 0 {
							pool = append(pool, cand[local.next()%uint64(len(cand))].ID)
						}
					}
					for _, j := range pool {
						if int(j) == i || contains(nbrs[i], j) {
							continue
						}
						s := vec.Dot(keys.Row(i), keys.Row(int(j)))
						if len(nbrs[i]) < k || s > nbrs[i][0].Score {
							nbrs[i].PushBounded(index.Candidate{ID: j, Score: s}, k)
							localUpdates++
						}
					}
				}
				mu.Lock()
				updates += localUpdates
				mu.Unlock()
			}(lo, hi, cfg.Seed+uint64(iter)*1024+uint64(w))
		}
		wg.Wait()
		if updates == 0 {
			break
		}
	}

	out := make([][]index.Candidate, n)
	for i := range nbrs {
		h := nbrs[i]
		out[i] = h.Sorted()
	}
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

func contains(h index.MinHeap, id int32) bool {
	for _, c := range h {
		if c.ID == id {
			return true
		}
	}
	return false
}

type splitmix struct{ s uint64 }

func splitmixState(seed uint64) splitmix { return splitmix{s: seed*0x9e3779b97f4a7c15 + 1} }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
