package metrics

import (
	"sync/atomic"
	"time"
)

// Endpoint enumerates the service operations the serving layer measures.
// The set is closed so per-endpoint counters can live in a fixed array of
// atomics: observation from concurrent request handlers never takes a lock,
// so timing a request adds no critical section to the one admission and
// session lookup already share.
type Endpoint int

const (
	EPCreateSession Endpoint = iota
	EPPrefill
	EPStep
	EPStepStream
	EPStore
	EPCloseSession
	EPStats
	EPHealthz
	numEndpoints
)

var endpointNames = [numEndpoints]string{
	"create_session",
	"prefill",
	"step",
	"step_stream",
	"store",
	"close_session",
	"stats",
	"healthz",
}

// String returns the endpoint's wire name (the action segment of its URL,
// or the operation name for create/close).
func (e Endpoint) String() string {
	if e < 0 || e >= numEndpoints {
		return "unknown"
	}
	return endpointNames[e]
}

// Endpoints lists every measured endpoint in declaration order.
func Endpoints() []Endpoint {
	out := make([]Endpoint, numEndpoints)
	for i := range out {
		out[i] = Endpoint(i)
	}
	return out
}

type endpointCounter struct {
	requests atomic.Int64
	errors   atomic.Int64
	nanos    atomic.Int64 // cumulative service time
	maxNanos atomic.Int64
}

// EndpointCounters measures request volume and service latency per
// endpoint. Safe for concurrent use; the zero value is ready.
type EndpointCounters struct {
	counters [numEndpoints]endpointCounter
}

// Observe records one request: which endpoint served it, whether it failed
// (a typed service error — wire-level encode failures are counted by the
// transport), and how long the service core spent on it.
func (c *EndpointCounters) Observe(e Endpoint, failed bool, d time.Duration) {
	if e < 0 || e >= numEndpoints {
		return
	}
	ec := &c.counters[e]
	ec.requests.Add(1)
	if failed {
		ec.errors.Add(1)
	}
	n := d.Nanoseconds()
	ec.nanos.Add(n)
	for {
		cur := ec.maxNanos.Load()
		if n <= cur || ec.maxNanos.CompareAndSwap(cur, n) {
			break
		}
	}
}

// EndpointSnapshot is a point-in-time copy of one endpoint's counters.
type EndpointSnapshot struct {
	// Endpoint is the wire name of the operation.
	Endpoint string `json:"endpoint"`
	// Requests counts every observed request, including failed ones.
	Requests int64 `json:"requests"`
	// Errors counts requests that returned a typed service error.
	Errors int64 `json:"errors"`
	// MeanMillis is the mean service time in milliseconds.
	MeanMillis float64 `json:"mean_ms"`
	// MaxMillis is the largest observed service time in milliseconds.
	MaxMillis float64 `json:"max_ms"`
}

// Snapshot returns the counters of every endpoint that has served at least
// one request, in declaration order.
func (c *EndpointCounters) Snapshot() []EndpointSnapshot {
	var out []EndpointSnapshot
	for i := range c.counters {
		ec := &c.counters[i]
		n := ec.requests.Load()
		if n == 0 {
			continue
		}
		out = append(out, EndpointSnapshot{
			Endpoint:   Endpoint(i).String(),
			Requests:   n,
			Errors:     ec.errors.Load(),
			MeanMillis: float64(ec.nanos.Load()) / float64(n) / 1e6,
			MaxMillis:  float64(ec.maxNanos.Load()) / 1e6,
		})
	}
	return out
}

// Requests returns the request count of one endpoint.
func (c *EndpointCounters) Requests(e Endpoint) int64 {
	if e < 0 || e >= numEndpoints {
		return 0
	}
	return c.counters[e].requests.Load()
}
