package grpc

import (
	"context"
	"encoding/json"
	"errors"
	"io"

	"repro/internal/serve"
	"repro/internal/serve/grpc/pb"
)

// Remote is the one typed client of a serve.Core served over gRPC, the
// client-side mirror of Server.dispatch: one method per Core operation,
// each taking a ctx, with the serve request and response types in and
// out. step and step_stream carry binary frames, as the server decodes
// them. Every error is a *serve.Error, typed as serve.Remote types the
// same failure on the HTTP wire: a non-OK status keeps the exact kind of
// its Alaya-Kind trailer; an HTTP status with no gRPC body (a proxy
// answered) is typed by serve.UntypedStatusKind; a call that got no
// answer (a refused dial, a reset connection) is unavailable; and an
// answer that is not well-formed gRPC, or whose message or frame does not
// decode, is internal. A request the frame layout cannot carry (a ragged
// query grid) is a bad request before anything is sent. Safe for
// concurrent use.
type Remote struct {
	target string
	conn   *ClientConn
}

// DialRemote returns a client of the Core served at target, connecting
// lazily as Dial does.
func DialRemote(target string, opts ...DialOption) *Remote {
	return &Remote{target: target, conn: Dial(target, opts...)}
}

// Close releases idle connections.
func (r *Remote) Close() error { return r.conn.Close() }

// serveErr folds what a ClientConn call returned into the serve error
// taxonomy (see the type comment).
func (r *Remote) serveErr(err error) error {
	var st *StatusError
	var se *serve.Error
	switch {
	case err == nil:
		return nil
	case errors.As(err, &st):
		return &serve.Error{Kind: st.Kind, Message: st.Message}
	case errors.As(err, &se):
		return se
	}
	return serve.Unavailablef("%s: %v", r.target, err)
}

// CreateSession opens a session on the remote Core.
func (r *Remote) CreateSession(ctx context.Context, req *serve.CreateSessionRequest) (*serve.CreateSessionResponse, error) {
	in := &pb.CreateSessionRequest{
		Seed:   req.Seed,
		Tokens: make([]pb.Token, len(req.Tokens)),
		SpanLo: int64(req.SpanLo),
		SpanHi: int64(req.SpanHi),
	}
	for i, t := range req.Tokens {
		in.Tokens[i] = pb.Token{Topic: int64(t.Topic), Payload: int64(t.Payload), Salience: t.Salience}
	}
	var out pb.CreateSessionResponse
	if err := r.conn.Invoke(ctx, pb.MethodCreateSession, in, &out); err != nil {
		return nil, r.serveErr(err)
	}
	return &serve.CreateSessionResponse{SessionID: out.SessionID, Reused: int(out.Reused)}, nil
}

// Prefill generates the session's KV on the remote Core.
func (r *Remote) Prefill(ctx context.Context, id int64) (*serve.PrefillResponse, error) {
	var out pb.PrefillResponse
	if err := r.conn.Invoke(ctx, pb.MethodPrefill, &pb.SessionRequest{SessionID: id}, &out); err != nil {
		return nil, r.serveErr(err)
	}
	return &serve.PrefillResponse{Prefilled: int(out.Prefilled), ContextLen: int(out.ContextLen)}, nil
}

// Step runs one decode step.
func (r *Remote) Step(ctx context.Context, id int64, req *serve.StepRequest) (*serve.StepResponse, error) {
	in, err := frameRequest(id, req)
	if err != nil {
		return nil, err
	}
	var out pb.FrameResponse
	if err := r.conn.Invoke(ctx, pb.MethodStep, in, &out); err != nil {
		return nil, r.serveErr(err)
	}
	resp := new(serve.StepResponse)
	if err := serve.UnmarshalFrame(out.Frame, resp); err != nil {
		return nil, serve.Internalf("%s: bad step response: %v", r.target, err)
	}
	return resp, nil
}

// frameRequest carries v's frame to session id; a request the frame
// layout cannot represent is the caller's bad request.
func frameRequest(id int64, v interface{}) (*pb.FrameRequest, error) {
	frame, err := serve.MarshalFrame(v)
	if err != nil {
		return nil, serve.BadRequestf("encode frame: %v", err)
	}
	return &pb.FrameRequest{SessionID: id, Frame: frame}, nil
}

// Store persists the session as a reusable context on the remote Core.
func (r *Remote) Store(ctx context.Context, id int64) (*serve.StoreResponse, error) {
	var out pb.StoreResponse
	if err := r.conn.Invoke(ctx, pb.MethodStore, &pb.SessionRequest{SessionID: id}, &out); err != nil {
		return nil, r.serveErr(err)
	}
	return &serve.StoreResponse{StoredTokens: int(out.StoredTokens)}, nil
}

// CloseSession closes the session on the remote Core.
func (r *Remote) CloseSession(ctx context.Context, id int64) (*serve.CloseResponse, error) {
	var out pb.CloseSessionResponse
	if err := r.conn.Invoke(ctx, pb.MethodCloseSession, &pb.SessionRequest{SessionID: id}, &out); err != nil {
		return nil, r.serveErr(err)
	}
	return &serve.CloseResponse{Status: out.Status}, nil
}

// Healthz probes the remote Core's liveness.
func (r *Remote) Healthz(ctx context.Context) (*serve.HealthzResponse, error) {
	var out pb.HealthzResponse
	if err := r.conn.Invoke(ctx, pb.MethodHealthz, &pb.HealthzRequest{}, &out); err != nil {
		return nil, r.serveErr(err)
	}
	return &serve.HealthzResponse{Status: out.Status, OpenSessions: int(out.OpenSessions)}, nil
}

// Stats fetches the remote Core's statistics document.
func (r *Remote) Stats(ctx context.Context) (*serve.StatsResponse, error) {
	var out pb.StatsResponse
	if err := r.conn.Invoke(ctx, pb.MethodStats, &pb.StatsRequest{}, &out); err != nil {
		return nil, r.serveErr(err)
	}
	st := new(serve.StatsResponse)
	if err := json.Unmarshal(out.StatsJSON, st); err != nil {
		return nil, serve.Internalf("%s: bad stats document: %v", r.target, err)
	}
	return st, nil
}

// StepStream submits a batch of steps and returns a pull stream over
// their responses. An RPC the server refused before streaming fails here
// or on the first Recv. After a clean terminator the RPC must end OK
// with no further message. The stream must be closed.
func (r *Remote) StepStream(ctx context.Context, id int64, req *serve.StepsRequest) (*serve.Stream, error) {
	in, err := frameRequest(id, req)
	if err != nil {
		return nil, err
	}
	cs, err := r.conn.OpenStream(ctx, pb.MethodStepStream, in)
	if err != nil {
		return nil, r.serveErr(err)
	}
	var sr serve.StreamReader
	next := func(resp *serve.StepResponse) error {
		msg, err := cs.next()
		if err == io.EOF {
			return serve.Internalf("%s: stream ended without a stream-end frame", r.target)
		}
		if err != nil {
			return r.serveErr(err)
		}
		frame, err := pb.FrameOf(msg)
		if err != nil {
			return serve.Internalf("%s: bad stream message: %v", r.target, err)
		}
		if err = sr.Message(frame, resp); err != io.EOF {
			return err
		}
		switch _, err = cs.next(); err {
		case nil:
			return serve.Internalf("%s: message after the stream-end frame", r.target)
		case io.EOF:
			return io.EOF
		}
		return r.serveErr(err)
	}
	return serve.NewStream(next, cs.Close), nil
}
