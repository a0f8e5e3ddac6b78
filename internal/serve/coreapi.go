package serve

import "context"

// Core is the transport-facing operation set of a serving node: every
// typed request/response pair of the API with no wire anywhere in sight.
// Step and StepStream are its only decode calls. The single-node *Service
// implements it directly; the cluster shard router (internal/cluster)
// implements it by proxying to remote nodes and merging partials — and
// because both the HTTP server and the gRPC server are written against
// Core, either backend mounts on either transport unchanged.
type Core interface {
	CreateSession(req *CreateSessionRequest) (*CreateSessionResponse, error)
	Prefill(id int64) (*PrefillResponse, error)
	Step(id int64, req *StepRequest) (*StepResponse, error)
	StepStream(ctx context.Context, id int64, req *StepsRequest, sink func(*StepResponse) error) error
	Store(id int64) (*StoreResponse, error)
	CloseSession(id int64) (*CloseResponse, error)
	Healthz() *HealthzResponse
	Stats() (*StatsResponse, error)
	Close() error
}

// The Service is the canonical Core.
var _ Core = (*Service)(nil)
