package metrics

import "sync/atomic"

// CtxParCounters counts per-context index builds only: how many ran and
// how long they took. Same atomics-not-mutex rationale as QuantCounters.
// Safe for concurrent use; the zero value is ready.
type CtxParCounters struct {
	builds         atomic.Int64
	buildNanos     atomic.Int64
	lastBuildNanos atomic.Int64
}

// CtxParSnapshot is a point-in-time copy of the counters.
type CtxParSnapshot struct {
	// IndexBuilds counts per-context index builds (Import and reuse-extend).
	IndexBuilds int64
	// IndexBuildMillis is total wall-clock across builds, in milliseconds.
	IndexBuildMillis int64
	// LastIndexBuildMillis is the wall-clock of the most recent build.
	LastIndexBuildMillis int64
}

// RecordBuild counts one per-context index build and its wall-clock in
// nanoseconds.
func (c *CtxParCounters) RecordBuild(nanos int64) {
	c.builds.Add(1)
	c.buildNanos.Add(nanos)
	c.lastBuildNanos.Store(nanos)
}

// Snapshot returns a copy of the counters, durations in milliseconds.
func (c *CtxParCounters) Snapshot() CtxParSnapshot {
	return CtxParSnapshot{
		IndexBuilds:          c.builds.Load(),
		IndexBuildMillis:     c.buildNanos.Load() / 1e6,
		LastIndexBuildMillis: c.lastBuildNanos.Load() / 1e6,
	}
}
