// Package index defines the vocabulary shared by AlayaDB's index
// implementations (§6.2): candidates scored by inner product, the common
// Searcher interface, and small heap utilities for top-k selection.
//
// Three index families implement Searcher, mirroring Table 4 of the paper:
//
//   - flat  (internal/index/flat):   exhaustive scan; no device memory,
//     medium latency at any k.
//   - coarse (internal/index/coarse): block-grained representatives kept on
//     device; low latency, large memory.
//   - graph (internal/index/graph):  fine-grained RoarGraph-like proximity
//     graph; low latency at small k, supports DIPR traversal.
package index

import "repro/internal/vec"

// Candidate is a scored token position. Score is the raw inner product
// q·kᵀ (not scaled by √d; scaling is monotone and applied by attention).
type Candidate struct {
	ID    int32
	Score float32
}

// Searcher is the query-facing interface of every index type.
type Searcher interface {
	// TopK returns the k candidates with the highest inner product against
	// q, best first. Fewer than k are returned if the index is smaller.
	TopK(q []float32, k int) []Candidate
	// Len returns the number of indexed vectors.
	Len() int
}

// MinHeap is a min-heap of candidates by score: the root is the worst
// candidate, so it supports streaming top-k selection.
//
// The hot-path operations (PushValue, PopValue, PushBounded, Sorted,
// SortedInto) sift by direct Score comparison instead of going through
// container/heap: boxing a Candidate into an interface{} allocates, and the
// heaps sit inside loops the decode path runs per token. The heap.Interface
// methods remain for compatibility; both produce identical orderings.
type MinHeap []Candidate

func (h MinHeap) Len() int            { return len(h) }
func (h MinHeap) Less(i, j int) bool  { return h[i].Score < h[j].Score }
func (h MinHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *MinHeap) Push(x interface{}) { *h = append(*h, x.(Candidate)) }
func (h *MinHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// PushValue inserts c without interface boxing. Equivalent to heap.Push.
func (h *MinHeap) PushValue(c Candidate) {
	*h = append(*h, c)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if s[j].Score >= s[i].Score {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// PopValue removes and returns the root (worst candidate) without interface
// boxing. Equivalent to heap.Pop.
func (h *MinHeap) PopValue() Candidate {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	minSiftDown(s[:n], 0)
	top := s[n]
	*h = s[:n]
	return top
}

// minSiftDown restores the heap property below node i, mirroring
// container/heap's down so orderings are identical either way.
func minSiftDown(s []Candidate, i int) {
	n := len(s)
	for {
		j1 := 2*i + 1
		if j1 >= n {
			return
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s[j2].Score < s[j1].Score {
			j = j2
		}
		if s[j].Score >= s[i].Score {
			return
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
}

// PushBounded inserts c keeping at most k elements: once full, c replaces
// the root only if it scores higher.
func (h *MinHeap) PushBounded(c Candidate, k int) {
	if k <= 0 {
		return
	}
	if h.Len() < k {
		h.PushValue(c)
		return
	}
	if c.Score > (*h)[0].Score {
		(*h)[0] = c
		minSiftDown(*h, 0)
	}
}

// Sorted drains the heap and returns candidates best-first. The heap is
// emptied.
func (h *MinHeap) Sorted() []Candidate {
	return h.SortedInto(nil)
}

// SortedInto drains the heap into dst (grown only if its capacity is too
// small) and returns the candidates best-first. The heap is emptied. It is
// the allocation-free form of Sorted for callers holding a reusable buffer.
func (h *MinHeap) SortedInto(dst []Candidate) []Candidate {
	n := h.Len()
	if cap(dst) < n {
		dst = make([]Candidate, n)
	} else {
		dst = dst[:n]
	}
	for i := n - 1; i >= 0; i-- {
		dst[i] = h.PopValue()
	}
	return dst
}

// MaxHeap is a max-heap of candidates by score: the root is the best
// candidate, used as a search frontier. As with MinHeap, PushValue/PopValue
// avoid the interface boxing of container/heap.
type MaxHeap []Candidate

func (h MaxHeap) Len() int            { return len(h) }
func (h MaxHeap) Less(i, j int) bool  { return h[i].Score > h[j].Score }
func (h MaxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *MaxHeap) Push(x interface{}) { *h = append(*h, x.(Candidate)) }
func (h *MaxHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// PushValue inserts c without interface boxing.
func (h *MaxHeap) PushValue(c Candidate) {
	*h = append(*h, c)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if s[i].Score >= s[j].Score {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// PopValue removes and returns the root (best candidate) without interface
// boxing.
func (h *MaxHeap) PopValue() Candidate {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	*h = s[:n]
	s = s[:n]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			return top
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s[j2].Score > s[j1].Score {
			j = j2
		}
		if s[i].Score >= s[j].Score {
			return top
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
}

// IDs extracts the token positions of candidates as ints, preserving order.
func IDs(cs []Candidate) []int {
	out := make([]int, len(cs))
	for i, c := range cs {
		out[i] = int(c.ID)
	}
	return out
}

// Score sets each candidate's Score to vec.Dot(q, row(ID)), scoring four
// rows per vec.Dot4 pass; a 1–3 candidate tail takes one more pass with
// its last row repeated and the extra lanes dropped. Scores are bitwise
// identical to per-candidate Dot calls, so a caller may collect the nodes
// a traversal step will score, score them here, and then apply its accept
// rule in collection order without changing any decision.
func Score(q []float32, row func(int32) []float32, cs []Candidate) {
	var out [4]float32
	i := 0
	for ; i+4 <= len(cs); i += 4 {
		c := cs[i : i+4 : i+4]
		vec.Dot4(q, row(c[0].ID), row(c[1].ID), row(c[2].ID), row(c[3].ID), &out)
		c[0].Score, c[1].Score, c[2].Score, c[3].Score = out[0], out[1], out[2], out[3]
	}
	if tail := cs[i:]; len(tail) > 0 {
		last := row(tail[len(tail)-1].ID)
		rows := [4][]float32{last, last, last, last}
		for k := range tail[:len(tail)-1] {
			rows[k] = row(tail[k].ID)
		}
		vec.Dot4(q, rows[0], rows[1], rows[2], rows[3], &out)
		for k := range tail {
			tail[k].Score = out[k]
		}
	}
}
