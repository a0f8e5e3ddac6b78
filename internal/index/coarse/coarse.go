// Package coarse implements the coarse-grained block index of §6.2: adjacent
// tokens are grouped into fixed-size blocks, each represented by summary
// vectors kept in device memory. Retrieval scores representatives only and
// selects whole blocks for attention — the InfLLM [63] / Quest [55] family.
// It is fast and device-hungry: the paper's Table 4 row "Coarse".
package coarse

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/vec"
)

// ScoreMode selects how a block's relevance to a query is estimated from
// its representatives.
type ScoreMode int

const (
	// Mean scores a block by the inner product with its mean key
	// (InfLLM-style representative scoring).
	Mean ScoreMode = iota
	// Bound scores a block by the Quest-style upper bound
	// Σ_d max(q_d·min_d, q_d·max_d), which never underestimates any token
	// in the block.
	Bound
)

// Index is a block-grained index over a key matrix.
type Index struct {
	keys      *vec.Matrix
	blockSize int
	mode      ScoreMode

	mean *vec.Matrix // one row per block
	min  *vec.Matrix
	max  *vec.Matrix
}

// New builds the block representatives for keys. blockSize must be
// positive. The representative build is a single pass over the keys.
func New(keys *vec.Matrix, blockSize int, mode ScoreMode) *Index {
	if blockSize <= 0 {
		panic(fmt.Sprintf("coarse: blockSize must be positive, got %d", blockSize))
	}
	n, d := keys.Rows(), keys.Cols()
	nb := (n + blockSize - 1) / blockSize
	x := &Index{
		keys:      keys,
		blockSize: blockSize,
		mode:      mode,
		mean:      vec.NewMatrix(nb, d),
		min:       vec.NewMatrix(nb, d),
		max:       vec.NewMatrix(nb, d),
	}
	for b := 0; b < nb; b++ {
		lo, hi := x.BlockTokens(b)
		mean, mn, mx := x.mean.Row(b), x.min.Row(b), x.max.Row(b)
		copy(mn, keys.Row(lo))
		copy(mx, keys.Row(lo))
		for i := lo; i < hi; i++ {
			row := keys.Row(i)
			for j, v := range row {
				mean[j] += v
				if v < mn[j] {
					mn[j] = v
				}
				if v > mx[j] {
					mx[j] = v
				}
			}
		}
		vec.Scale(1/float32(hi-lo), mean)
	}
	return x
}

// Len returns the number of indexed vectors (tokens, not blocks).
func (x *Index) Len() int { return x.keys.Rows() }

// Blocks returns the number of blocks.
func (x *Index) Blocks() int { return x.mean.Rows() }

// BlockSize returns the tokens per block (the last block may be shorter).
func (x *Index) BlockSize() int { return x.blockSize }

// BlockTokens returns the token range [lo, hi) of block b.
func (x *Index) BlockTokens(b int) (lo, hi int) {
	lo = b * x.blockSize
	hi = lo + x.blockSize
	if n := x.keys.Rows(); hi > n {
		hi = n
	}
	return lo, hi
}

// BlockScore estimates block b's relevance to q under the index's mode.
func (x *Index) BlockScore(q []float32, b int) float32 {
	switch x.mode {
	case Bound:
		mn, mx := x.min.Row(b), x.max.Row(b)
		var s float32
		for j, qv := range q {
			a, c := qv*mn[j], qv*mx[j]
			if a > c {
				s += a
			} else {
				s += c
			}
		}
		return s
	default:
		return vec.Dot(q, x.mean.Row(b))
	}
}

// SelectBlocks returns the ids of the m highest-scoring blocks, best first.
func (x *Index) SelectBlocks(q []float32, m int) []int {
	nb := x.Blocks()
	if m > nb {
		m = nb
	}
	if m <= 0 {
		return nil
	}
	h := make(index.MinHeap, 0, m)
	for b := 0; b < nb; b++ {
		h.PushBounded(index.Candidate{ID: int32(b), Score: x.BlockScore(q, b)}, m)
	}
	return index.IDs(h.Sorted())
}

// SelectTokens returns the token positions of the best blocks covering at
// least budget tokens (InfLLM's retrieval unit), in ascending position
// order within each block, best block first.
func (x *Index) SelectTokens(q []float32, budget int) []int {
	if budget <= 0 {
		return nil
	}
	nBlocks := (budget + x.blockSize - 1) / x.blockSize
	var out []int
	for _, b := range x.SelectBlocks(q, nBlocks) {
		lo, hi := x.BlockTokens(b)
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
	}
	return out
}

// TopK selects blocks by representative score, then ranks the tokens inside
// the selected blocks exactly. It examines 4× more blocks than strictly
// needed to cover k tokens, trading a little scan work for recall.
func (x *Index) TopK(q []float32, k int) []index.Candidate {
	n := x.keys.Rows()
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	nBlocks := 4 * ((k + x.blockSize - 1) / x.blockSize)
	h := make(index.MinHeap, 0, k)
	for _, b := range x.SelectBlocks(q, nBlocks) {
		lo, hi := x.BlockTokens(b)
		for i := lo; i < hi; i++ {
			h.PushBounded(index.Candidate{ID: int32(i), Score: vec.Dot(q, x.keys.Row(i))}, k)
		}
	}
	return h.Sorted()
}

// RepresentativeBytes returns the device-memory footprint of the block
// summaries (mean, min, max vectors).
func (x *Index) RepresentativeBytes() int64 {
	return x.mean.Bytes() + x.min.Bytes() + x.max.Bytes()
}
