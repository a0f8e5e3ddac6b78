package attention

import (
	"repro/internal/pool"

	"repro/internal/vec"
)

// Engine is the data-centric attention engine (§7.2): partial attention is
// applied to vectors where they reside — the device-cached window and the
// host-resident retrieved tokens — in parallel, and the partial outputs are
// aggregated by log-sum-exp weighting, avoiding any movement of KV data
// between the two sides.
type Engine struct {
	// Window is the device-resident token window.
	Window Window
	// Parallel computes the two partials concurrently when true, matching
	// the paper's overlap of device and host computation.
	Parallel bool
	// Pool schedules the partials when Parallel is set; nil uses the
	// process-wide pool.Default(). A saturated pool degrades to serial
	// execution instead of spawning unbounded goroutines.
	Pool *pool.Pool
}

// SparseWindowed computes sparse attention over the union of the engine's
// window and the retrieved token set. Retrieved indices that fall inside
// the window are dropped first so the union is disjoint.
func (e *Engine) SparseWindowed(q []float32, K, V *vec.Matrix, retrieved []int) []float32 {
	n := K.Rows()
	winIdx := e.Window.Indices(n)
	hostIdx := e.Window.Outside(retrieved, n)

	var winPart, hostPart Partial
	if e.Parallel {
		p := e.Pool
		if p == nil {
			p = pool.Default()
		}
		p.Run(
			func() { winPart = Over(q, K, V, winIdx) },
			func() { hostPart = Over(q, K, V, hostIdx) },
		)
	} else {
		winPart = Over(q, K, V, winIdx)
		hostPart = Over(q, K, V, hostIdx)
	}
	return Merge(winPart, hostPart)
}

// Union returns the disjoint union of the window's positions and the
// retrieved set for a context of n tokens — the token set SparseWindowed
// attends to.
func (e *Engine) Union(retrieved []int, n int) []int {
	winIdx := e.Window.Indices(n)
	return append(winIdx, e.Window.Outside(retrieved, n)...)
}
