package metrics

// SchedSnapshot is a point-in-time copy of the serving layer's decode
// scheduler counters plus its admission bound, the shape /v1/stats
// reports.
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
