package cluster

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serve"
	agrpc "repro/internal/serve/grpc"
	"repro/internal/serve/grpc/pb"
)

// node is one remote alayad peer: a pooled gRPC connection plus health
// state and routed-traffic counters. All methods are safe for concurrent
// use; the connection multiplexes RPCs over its HTTP/2 pool.
type node struct {
	addr     string
	conn     *agrpc.ClientConn
	healthy  atomic.Bool
	sessions atomic.Int64
	nc       metrics.NodeCounters
}

func newNode(addr string, opts ...agrpc.DialOption) *node {
	n := &node{addr: addr, conn: agrpc.Dial(addr, opts...)}
	// Optimistic start: the first real call finds out, and a transport
	// failure demotes the node until a probe revives it.
	n.healthy.Store(true)
	return n
}

// finish books one routed call's outcome: a transport-level UNAVAILABLE
// demotes the node (probes take over reviving it) and the gRPC status is
// rewritten into the serve error taxonomy so the transports fronting the
// router encode it exactly as a local Service error.
func (n *node) finish(err error) error {
	n.nc.Call(err != nil)
	if err == nil {
		return nil
	}
	var st *agrpc.StatusError
	if errors.As(err, &st) {
		if st.Kind == serve.KindUnavailable {
			n.healthy.Store(false)
		}
		kind := st.Kind
		if kind == "" {
			kind = serve.KindInternal
		}
		return &serve.Error{Kind: kind, Message: st.Message}
	}
	var se *serve.Error
	if errors.As(err, &se) {
		return se
	}
	return serve.Unavailablef("node %s: %v", n.addr, err)
}

// probe runs one bounded health check and updates the node's verdict.
func (n *node) probe(timeout time.Duration) bool {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var resp pb.HealthzResponse
	err := n.conn.Invoke(ctx, pb.MethodHealthz, &pb.HealthzRequest{}, &resp)
	ok := err == nil && resp.Status == "ok"
	n.healthy.Store(ok)
	return ok
}

func pbTokens(tokens []model.Token) []pb.Token {
	out := make([]pb.Token, len(tokens))
	for i, t := range tokens {
		out[i] = pb.Token{Topic: int64(t.Topic), Payload: int64(t.Payload), Salience: t.Salience}
	}
	return out
}

func (n *node) createSession(ctx context.Context, req *serve.CreateSessionRequest) (*serve.CreateSessionResponse, error) {
	preq := &pb.CreateSessionRequest{
		Seed:   req.Seed,
		Tokens: pbTokens(req.Tokens),
		SpanLo: int64(req.SpanLo),
		SpanHi: int64(req.SpanHi),
	}
	var resp pb.CreateSessionResponse
	if err := n.finish(n.conn.Invoke(ctx, pb.MethodCreateSession, preq, &resp)); err != nil {
		return nil, err
	}
	return &serve.CreateSessionResponse{SessionID: resp.SessionID, Reused: int(resp.Reused)}, nil
}

func (n *node) prefill(ctx context.Context, id int64) (*serve.PrefillResponse, error) {
	var resp pb.PrefillResponse
	if err := n.finish(n.conn.Invoke(ctx, pb.MethodPrefill, &pb.SessionRequest{SessionID: id}, &resp)); err != nil {
		return nil, err
	}
	return &serve.PrefillResponse{Prefilled: int(resp.Prefilled), ContextLen: int(resp.ContextLen)}, nil
}

// tensor runs one frame-carried RPC: the request is encoded with the
// serve frame codec, carried in a FrameRequest, and the response frame
// decoded back — the same bit-exact envelope both transports use. A
// request the frame layout cannot carry (a ragged query grid) is the
// caller's bad request, as it would be at a node.
func (n *node) tensor(ctx context.Context, method string, id int64, req, resp interface{}) error {
	frame, err := serve.MarshalFrame(req)
	if err != nil {
		return serve.BadRequestf("encode frame: %v", err)
	}
	var out pb.FrameResponse
	if err := n.finish(n.conn.Invoke(ctx, method, &pb.FrameRequest{SessionID: id, Frame: frame}, &out)); err != nil {
		return err
	}
	if err := serve.UnmarshalFrame(out.Frame, resp); err != nil {
		return serve.Internalf("node %s: bad response frame: %v", n.addr, err)
	}
	return nil
}

func (n *node) store(ctx context.Context, id int64) (*serve.StoreResponse, error) {
	var resp pb.StoreResponse
	if err := n.finish(n.conn.Invoke(ctx, pb.MethodStore, &pb.SessionRequest{SessionID: id}, &resp)); err != nil {
		return nil, err
	}
	return &serve.StoreResponse{StoredTokens: int(resp.StoredTokens)}, nil
}

func (n *node) closeSession(ctx context.Context, id int64) (*serve.CloseResponse, error) {
	var resp pb.CloseSessionResponse
	if err := n.finish(n.conn.Invoke(ctx, pb.MethodCloseSession, &pb.SessionRequest{SessionID: id}, &resp)); err != nil {
		return nil, err
	}
	return &serve.CloseResponse{Status: resp.Status}, nil
}

// stepStream opens the remote per-step stream and replays each decoded
// item into sink, preserving the item-by-item flush that lets the engine
// overlap reading step N with decoding step N+1 across the hop.
func (n *node) stepStream(ctx context.Context, id int64, req *serve.StepsRequest, sink func(*serve.StepResponse) error) error {
	frame, err := serve.MarshalFrame(req)
	if err != nil {
		return serve.BadRequestf("encode frame: %v", err)
	}
	stream, err := n.conn.OpenStream(ctx, pb.MethodStepStream, &pb.FrameRequest{SessionID: id, Frame: frame})
	if err != nil {
		return n.finish(err)
	}
	defer stream.Close()
	for {
		var msg pb.FrameResponse
		rerr := stream.Recv(&msg)
		if rerr != nil {
			// EOF before the stream-end frame means the peer vanished.
			return n.finish(rerr)
		}
		kind, payload, perr := serve.NewStreamScanner(bytes.NewReader(msg.Frame)).ReadFrame()
		if perr != nil {
			return serve.Internalf("node %s: bad stream frame: %v", n.addr, perr)
		}
		switch kind {
		case serve.FrameStreamItem:
			var step serve.StepResponse
			if uerr := serve.UnmarshalFrame(payload, &step); uerr != nil {
				return serve.Internalf("node %s: bad stream item: %v", n.addr, uerr)
			}
			if serr := sink(&step); serr != nil {
				return serr
			}
		case serve.FrameStreamEnd:
			_, env, derr := serve.DecodeStreamEnd(payload)
			if derr != nil {
				return serve.Internalf("node %s: bad stream end: %v", n.addr, derr)
			}
			n.nc.Call(env.Error != "")
			if env.Error != "" {
				kind := serve.Kind(env.Kind)
				if kind == "" {
					kind = serve.KindInternal
				}
				return &serve.Error{Kind: kind, Message: env.Error}
			}
			return nil
		default:
			return serve.Internalf("node %s: unexpected stream frame kind %d", n.addr, kind)
		}
	}
}
