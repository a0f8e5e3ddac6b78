package attention

import "repro/internal/vec"

// Engine is the data-centric attention engine (§7.2): partial attention is
// applied to vectors where they reside — the device-cached window and the
// host-resident retrieved tokens — and the partial outputs are aggregated
// by log-sum-exp weighting, avoiding any movement of KV data between the
// two sides. The two partials run in turn on the calling goroutine;
// callers fan out across heads.
type Engine struct {
	// Window is the device-resident token window.
	Window Window
}

// SparseWindowed computes sparse attention over the union of the engine's
// window and the retrieved token set. Retrieved indices that fall inside
// the window are dropped first so the union is disjoint.
func (e *Engine) SparseWindowed(q []float32, K, V *vec.Matrix, retrieved []int) []float32 {
	n := K.Rows()
	winPart := Over(q, K, V, e.Window.Indices(n))
	hostPart := Over(q, K, V, e.Window.Outside(retrieved, n))
	return Merge(winPart, hostPart)
}

// Union returns the disjoint union of the window's positions and the
// retrieved set for a context of n tokens — the token set SparseWindowed
// attends to.
func (e *Engine) Union(retrieved []int, n int) []int {
	winIdx := e.Window.Indices(n)
	return append(winIdx, e.Window.Outside(retrieved, n)...)
}
