package attention

import "repro/internal/vec"

// Window describes the sink+recent token window that sparse-attention
// methods keep resident on the device (§7.1). Sinks is the number of
// initial tokens, Recent the number of trailing tokens.
type Window struct {
	Sinks  int
	Recent int
}

// Indices returns the positions covered by the window in a context of n
// tokens, in ascending order. If the window covers the whole context the
// result is simply 0..n-1.
func (w Window) Indices(n int) []int {
	out := make([]int, 0, w.Size(n))
	w.VisitIndices(n, func(i int) { out = append(out, i) })
	return out
}

// VisitIndices calls fn for each position covered by the window in a
// context of n tokens, in ascending order, without allocating. It is the
// single source of the sink+recent selection rule; Indices is its
// allocating form.
func (w Window) VisitIndices(n int, fn func(i int)) {
	if w.Sinks+w.Recent >= n {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	for i := 0; i < w.Sinks; i++ {
		fn(i)
	}
	for i := n - w.Recent; i < n; i++ {
		fn(i)
	}
}

// Contains reports whether position i falls inside the window of a context
// of n tokens.
func (w Window) Contains(i, n int) bool {
	if w.Sinks+w.Recent >= n {
		return i >= 0 && i < n
	}
	return (i >= 0 && i < w.Sinks) || (i >= n-w.Recent && i < n)
}

// Size returns the number of tokens the window covers in a context of n.
func (w Window) Size(n int) int {
	if w.Sinks+w.Recent >= n {
		return n
	}
	return w.Sinks + w.Recent
}

// Outside filters idx down to the positions not covered by the window,
// preserving order. It is used to make retrieved sets disjoint from the
// window before a Merge.
func (w Window) Outside(idx []int, n int) []int {
	out := idx[:0:0]
	for _, i := range idx {
		if !w.Contains(i, n) {
			out = append(out, i)
		}
	}
	return out
}

// SparseWindowed computes sparse attention over the union of the window
// and the retrieved token set, data-centric as in §7.2: one partial over
// the device-resident window, one over the host-resident retrieved tokens,
// aggregated by log-sum-exp weighting. Retrieved indices that fall inside
// the window are dropped first so the union is disjoint. The two partials
// run in turn on the calling goroutine; callers fan out across heads.
func (w Window) SparseWindowed(q []float32, K, V *vec.Matrix, retrieved []int) []float32 {
	n := K.Rows()
	winPart := Over(q, K, V, w.Indices(n))
	hostPart := Over(q, K, V, w.Outside(retrieved, n))
	return Merge(winPart, hostPart)
}

// Union returns the disjoint union of the window's positions and the
// retrieved set for a context of n tokens — the token set SparseWindowed
// attends to.
func (w Window) Union(retrieved []int, n int) []int {
	return append(w.Indices(n), w.Outside(retrieved, n)...)
}
