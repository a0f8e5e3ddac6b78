package cluster

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
	agrpc "repro/internal/serve/grpc"
)

// node is one remote alayad peer: its address, the shared gRPC client of
// its Core, health state and routed-traffic counters. All methods are
// safe for concurrent use; the client multiplexes RPCs over one HTTP/2
// pool.
type node struct {
	addr     string
	remote   *agrpc.Remote
	healthy  atomic.Bool
	sessions atomic.Int64
	nc       metrics.NodeCounters
}

func newNode(addr string, opts ...agrpc.DialOption) *node {
	n := &node{addr: addr, remote: agrpc.DialRemote(addr, opts...)}
	// Optimistic start: the first real call finds out, and a transport
	// failure demotes the node until a probe revives it.
	n.healthy.Store(true)
	return n
}

// finish books one routed call's outcome: an unavailable error demotes
// the node (probes take over reviving it). The error is already a
// *serve.Error, so the transports fronting the router encode it exactly
// as a local Service error.
func (n *node) finish(err error) error {
	n.nc.Call(err != nil)
	if se, ok := err.(*serve.Error); ok && se.Kind == serve.KindUnavailable {
		n.healthy.Store(false)
	}
	return err
}

// probe runs one bounded health check and updates the node's verdict.
func (n *node) probe(timeout time.Duration) bool {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	hz, err := n.remote.Healthz(ctx)
	ok := err == nil && hz.Status == "ok"
	n.healthy.Store(ok)
	return ok
}
