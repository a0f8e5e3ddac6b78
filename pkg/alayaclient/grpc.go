package alayaclient

import (
	"context"
	"encoding/json"
	"errors"

	"repro/internal/model"
	"repro/internal/serve"
	agrpc "repro/internal/serve/grpc"
	"repro/internal/serve/grpc/pb"
)

// The gRPC mode: WithGRPCAddr dials the alaya.v1.AlayaDB service instead
// of the HTTP surface, and every SDK method — including the StepStream
// iterator — runs over it with the same signatures and the same *APIError
// error model, so engine code switches transports by changing one dial
// option. Tensor payloads ride the identical binary frame encoding either
// way, which keeps outputs bitwise-equal across transports (held by the
// conformance suite in internal/serve/conformance).

// WithGRPCAddr routes the client over gRPC to addr ("host:port",
// "http://host:port", or "grpcs://host:port" for TLS — alayad's
// -grpc-addr listener). Mutually exclusive with WithBaseURL; WithJSONWire
// does not apply (the gRPC wire always carries binary frames).
func WithGRPCAddr(addr string, opts ...agrpc.DialOption) Option {
	return WithGRPCAddrs([]string{addr}, opts...)
}

// WithGRPCAddrs routes the client over gRPC with failover: calls prefer
// the first address, and a call that dies with an UNAVAILABLE status is
// retried once against the next address in the ring (which becomes the
// preferred one). Point the list at replica nodes or redundant routers;
// state is server-side, so a failed-over session only survives where the
// cluster placed it.
func WithGRPCAddrs(addrs []string, opts ...agrpc.DialOption) Option {
	return func(c *Client) {
		c.gcs = c.gcs[:0]
		for _, addr := range addrs {
			c.gcs = append(c.gcs, agrpc.Dial(addr, opts...))
		}
		if len(c.gcs) > 0 {
			c.gc = c.gcs[0]
		}
	}
}

// Close releases transport resources. In gRPC mode it drops each
// connection's idle HTTP/2 streams; an HTTP-mode client owns no
// connections of its own and Close is a no-op.
func (c *Client) Close() error {
	var err error
	for _, gc := range c.gcs {
		if cerr := gc.Close(); cerr != nil {
			err = cerr
		}
	}
	return err
}

// isUnavailableStatus reports a transport- or service-level UNAVAILABLE
// gRPC status — the only failure failover acts on.
func isUnavailableStatus(err error) bool {
	var st *agrpc.StatusError
	return errors.As(err, &st) && (st.Kind == serve.KindUnavailable || st.Code == agrpc.CodeUnavailable)
}

// invoke runs one unary RPC on the preferred connection, failing over
// once to the next address on UNAVAILABLE.
func (c *Client) invoke(ctx context.Context, method string, in, out pb.Message) error {
	cur := int(c.gcur.Load()) % len(c.gcs)
	err := c.gcs[cur].Invoke(ctx, method, in, out)
	if err == nil || len(c.gcs) == 1 || !isUnavailableStatus(err) {
		return err
	}
	next := (cur + 1) % len(c.gcs)
	c.gcur.CompareAndSwap(int64(cur), int64(next))
	return c.gcs[next].Invoke(ctx, method, in, out)
}

// openStream opens a server-streaming RPC with the same failover rule.
func (c *Client) openStream(ctx context.Context, method string, in pb.Message) (*agrpc.ClientStream, error) {
	cur := int(c.gcur.Load()) % len(c.gcs)
	gs, err := c.gcs[cur].OpenStream(ctx, method, in)
	if err == nil || len(c.gcs) == 1 || !isUnavailableStatus(err) {
		return gs, err
	}
	next := (cur + 1) % len(c.gcs)
	c.gcur.CompareAndSwap(int64(cur), int64(next))
	return c.gcs[next].OpenStream(ctx, method, in)
}

// IsUnavailable reports whether err is an APIError with kind unavailable
// — the server is shutting down or otherwise not accepting work; resubmit
// to another replica rather than retrying here.
func IsUnavailable(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Kind == serve.KindUnavailable
}

// grpcErr folds a gRPC status into the SDK's uniform *APIError: the exact
// serve kind (from the alaya-kind trailer, or reconstructed from the
// code) with the kind's HTTP status, so IsNotFound/IsOverloaded/
// IsUnavailable work identically on both transports.
func grpcErr(err error) error {
	if err == nil {
		return nil
	}
	var st *agrpc.StatusError
	if errors.As(err, &st) {
		return &APIError{Status: serve.HTTPStatus(st.Kind), Kind: st.Kind, Message: st.Message}
	}
	return err
}

// frameErr wraps a client-side frame-encoding failure as the typed
// bad-request the HTTP transport would have fetched from the server's
// validator (the JSON fallback does not exist on the gRPC wire, so
// requests the frame layout cannot represent — ragged query grids — fail
// here instead of after a round trip).
func frameErr(err error) error {
	return &APIError{Status: serve.HTTPStatus(serve.KindBadRequest), Kind: serve.KindBadRequest, Message: err.Error()}
}

func pbTokens(tokens []model.Token) []pb.Token {
	out := make([]pb.Token, len(tokens))
	for i, t := range tokens {
		out[i] = pb.Token{Topic: int64(t.Topic), Payload: int64(t.Payload), Salience: t.Salience}
	}
	return out
}

func (c *Client) grpcHealthz(ctx context.Context) (HealthzResponse, error) {
	var out pb.HealthzResponse
	if err := c.invoke(ctx, pb.MethodHealthz, &pb.HealthzRequest{}, &out); err != nil {
		return HealthzResponse{}, grpcErr(err)
	}
	return HealthzResponse{Status: out.Status, OpenSessions: int(out.OpenSessions)}, nil
}

func (c *Client) grpcStats(ctx context.Context) (StatsResponse, error) {
	var out pb.StatsResponse
	var st StatsResponse
	if err := c.invoke(ctx, pb.MethodStats, &pb.StatsRequest{}, &out); err != nil {
		return st, grpcErr(err)
	}
	if err := json.Unmarshal(out.StatsJSON, &st); err != nil {
		return st, err
	}
	return st, nil
}

func (c *Client) grpcCreateSession(ctx context.Context, doc *Document) (*Session, error) {
	var out pb.CreateSessionResponse
	in := &pb.CreateSessionRequest{Seed: doc.Seed, Tokens: pbTokens(doc.Tokens)}
	if err := c.invoke(ctx, pb.MethodCreateSession, in, &out); err != nil {
		return nil, grpcErr(err)
	}
	return &Session{c: c, ID: out.SessionID, Reused: int(out.Reused)}, nil
}

func (s *Session) grpcPrefill(ctx context.Context) (serve.PrefillResponse, error) {
	var out pb.PrefillResponse
	if err := s.c.invoke(ctx, pb.MethodPrefill, &pb.SessionRequest{SessionID: s.ID}, &out); err != nil {
		return serve.PrefillResponse{}, grpcErr(err)
	}
	return serve.PrefillResponse{Prefilled: int(out.Prefilled), ContextLen: int(out.ContextLen)}, nil
}

// grpcTensor runs one frame-carrying unary RPC: in encoded as a binary
// frame, the response frame decoded into out.
func (s *Session) grpcTensor(ctx context.Context, method string, in, out interface{}) error {
	frame, err := serve.MarshalFrame(in)
	if err != nil {
		return frameErr(err)
	}
	var resp pb.FrameResponse
	if err := s.c.invoke(ctx, method, &pb.FrameRequest{SessionID: s.ID, Frame: frame}, &resp); err != nil {
		return grpcErr(err)
	}
	return serve.UnmarshalFrame(resp.Frame, out)
}

func (s *Session) grpcStore(ctx context.Context) (serve.StoreResponse, error) {
	var out pb.StoreResponse
	if err := s.c.invoke(ctx, pb.MethodStore, &pb.SessionRequest{SessionID: s.ID}, &out); err != nil {
		return serve.StoreResponse{}, grpcErr(err)
	}
	return serve.StoreResponse{StoredTokens: int(out.StoredTokens)}, nil
}

func (s *Session) grpcCloseSession(ctx context.Context) error {
	var out pb.CloseSessionResponse
	return grpcErr(s.c.invoke(ctx, pb.MethodCloseSession, &pb.SessionRequest{SessionID: s.ID}, &out))
}

func (s *Session) grpcStepStream(ctx context.Context, steps []StepRequest) (*StepStream, error) {
	frame, err := serve.MarshalFrame(&serve.StepsRequest{Steps: steps})
	if err != nil {
		return nil, frameErr(err)
	}
	gs, err := s.c.openStream(ctx, pb.MethodStepStream, &pb.FrameRequest{SessionID: s.ID, Frame: frame})
	if err != nil {
		return nil, grpcErr(err)
	}
	return &StepStream{gs: gs}, nil
}
