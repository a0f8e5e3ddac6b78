package metrics

import "sync/atomic"

// SchedCounters measures the serving layer's decode scheduler: admission
// volume, backpressure rejections, and the steps run. Like
// EndpointCounters they are plain atomics — the scheduler touches them on
// every step, where a mutex would serialize steps on different sessions.
// Safe for concurrent use; the zero value is ready.
type SchedCounters struct {
	admitted   atomic.Int64
	rejected   atomic.Int64
	steps      atomic.Int64
	queueDepth atomic.Int64 // gauge: steps admitted, not yet started
}

// Admit records n steps admitted.
func (c *SchedCounters) Admit(n int) { c.admitted.Add(int64(n)) }

// Reject records n steps refused with backpressure (queue full).
func (c *SchedCounters) Reject(n int) { c.rejected.Add(int64(n)) }

// ObserveStep records one step run.
func (c *SchedCounters) ObserveStep() { c.steps.Add(1) }

// SetQueueDepth updates the queued-steps gauge.
func (c *SchedCounters) SetQueueDepth(n int) { c.queueDepth.Store(int64(n)) }

// SchedSnapshot is a point-in-time copy of the scheduler counters plus
// its admission bound, the shape /v1/stats reports.
type SchedSnapshot struct {
	// QueueCap is the configured admission bound.
	QueueCap int `json:"queue_cap"`
	// Admitted counts steps admitted.
	Admitted int64 `json:"admitted"`
	// Rejected counts steps refused with the overloaded error.
	Rejected int64 `json:"rejected"`
	// Waves counts steps run, each a wave of one; kept because the
	// benchmark's serve.sched.avg_wave probe reads it.
	Waves int64 `json:"waves"`
	// Items counts steps run; the benchmark's serve.sched.avg_wave probe
	// divides it by Waves.
	Items int64 `json:"items"`
	// MaxWave is 1 once a step has run; kept because the benchmark's
	// serve.sched.max_wave probe reads it.
	MaxWave int64 `json:"max_wave"`
	// QueueDepth is the current count of steps admitted, not yet started.
	QueueDepth int64 `json:"queue_depth"`
}

// Snapshot copies the counters. QueueCap is the caller's (the scheduler
// fills it in).
func (c *SchedCounters) Snapshot() SchedSnapshot {
	s := SchedSnapshot{
		Admitted:   c.admitted.Load(),
		Rejected:   c.rejected.Load(),
		Items:      c.steps.Load(),
		QueueDepth: c.queueDepth.Load(),
	}
	s.Waves = s.Items
	s.MaxWave = min(s.Items, 1)
	return s
}
