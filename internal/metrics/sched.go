package metrics

import "sync/atomic"

// SchedCounters measures the serving layer's continuous-batching decode
// scheduler: admission volume, backpressure rejections, and how full the
// shared decode waves actually run. Like EndpointCounters they are plain
// atomics — the scheduler touches them on its admission and dispatch hot
// paths, where a mutex would serialize exactly the traffic the scheduler
// exists to overlap. Safe for concurrent use; the zero value is ready.
type SchedCounters struct {
	admitted   atomic.Int64
	rejected   atomic.Int64
	waves      atomic.Int64
	items      atomic.Int64
	maxWave    atomic.Int64
	queueDepth atomic.Int64 // gauge: steps queued, not yet dispatched
}

// Admit records n steps admitted, queued or run direct.
func (c *SchedCounters) Admit(n int) { c.admitted.Add(int64(n)) }

// Reject records n steps refused with backpressure (queue full).
func (c *SchedCounters) Reject(n int) { c.rejected.Add(int64(n)) }

// ObserveWave records one wave carrying n step items (a direct step is
// a wave of one).
func (c *SchedCounters) ObserveWave(n int) {
	c.waves.Add(1)
	c.items.Add(int64(n))
	v := int64(n)
	for {
		cur := c.maxWave.Load()
		if v <= cur || c.maxWave.CompareAndSwap(cur, v) {
			break
		}
	}
}

// SetQueueDepth updates the queued-steps gauge.
func (c *SchedCounters) SetQueueDepth(n int) { c.queueDepth.Store(int64(n)) }

// SchedSnapshot is a point-in-time copy of the scheduler counters plus
// its static configuration, the shape /v1/stats reports.
type SchedSnapshot struct {
	// WaveSize is the configured per-wave session cap.
	WaveSize int `json:"wave_size"`
	// QueueCap is the configured admission-queue bound.
	QueueCap int `json:"queue_cap"`
	// Admitted counts steps admitted, queued or run direct.
	Admitted int64 `json:"admitted"`
	// Rejected counts steps refused with the overloaded error.
	Rejected int64 `json:"rejected"`
	// Waves counts decode waves; a direct step counts as a wave of one.
	Waves int64 `json:"waves"`
	// Items counts step items executed across all waves.
	Items int64 `json:"items"`
	// AvgWave is Items/Waves — the mean wave occupancy.
	AvgWave float64 `json:"avg_wave"`
	// MaxWave is the largest wave dispatched.
	MaxWave int64 `json:"max_wave"`
	// QueueDepth is the current queued-steps gauge.
	QueueDepth int64 `json:"queue_depth"`
}

// Snapshot copies the counters. WaveSize and QueueCap are the caller's
// (the scheduler fills its configuration in).
func (c *SchedCounters) Snapshot() SchedSnapshot {
	s := SchedSnapshot{
		Admitted:   c.admitted.Load(),
		Rejected:   c.rejected.Load(),
		Waves:      c.waves.Load(),
		Items:      c.items.Load(),
		MaxWave:    c.maxWave.Load(),
		QueueDepth: c.queueDepth.Load(),
	}
	if s.Waves > 0 {
		s.AvgWave = float64(s.Items) / float64(s.Waves)
	}
	return s
}
