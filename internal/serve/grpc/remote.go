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
// them. Every error is a *serve.Error: a non-OK status keeps the exact
// kind of its Alaya-Kind trailer, a call that got no status (a refused
// dial, a reset connection) is unavailable, and a response frame that
// does not decode is internal. A request the frame layout cannot carry (a
// ragged query grid) is a bad request before anything is sent. Safe for
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
// or on the first Recv. The stream must be closed.
func (r *Remote) StepStream(ctx context.Context, id int64, req *serve.StepsRequest) (*Stream, error) {
	in, err := frameRequest(id, req)
	if err != nil {
		return nil, err
	}
	cs, err := r.conn.OpenStream(ctx, pb.MethodStepStream, in)
	if err != nil {
		return nil, r.serveErr(err)
	}
	return &Stream{r: r, cs: cs}, nil
}

// Stream reads one StepStream RPC. Not safe for concurrent use.
type Stream struct {
	r   *Remote
	cs  *ClientStream
	sr  serve.StreamReader
	err error // terminal: io.EOF or the error that ended the stream
}

// Recv returns the next step's response. After the last one it returns
// io.EOF, once the terminator's item count matched and the RPC ended OK;
// a terminator that carries an error returns that typed error. Every
// later call repeats the terminal result.
func (s *Stream) Recv() (*serve.StepResponse, error) {
	if s.err == nil {
		var resp *serve.StepResponse
		if resp, s.err = s.next(); s.err == nil {
			return resp, nil
		}
	}
	return nil, s.err
}

func (s *Stream) next() (*serve.StepResponse, error) {
	msg, err := s.cs.next()
	if err == io.EOF {
		return nil, serve.Internalf("%s: stream ended without a stream-end frame", s.r.target)
	}
	if err != nil {
		return nil, s.r.serveErr(err)
	}
	resp := new(serve.StepResponse)
	frame, err := pb.FrameOf(msg)
	if err == nil {
		err = s.sr.Message(frame, resp)
	}
	var se *serve.Error
	switch {
	case err == nil:
		return resp, nil
	case err == io.EOF:
		// A clean terminator is the last message: the RPC ends OK after it.
		if _, err := s.cs.next(); err != io.EOF {
			if err == nil {
				return nil, serve.Internalf("%s: message after the stream-end frame", s.r.target)
			}
			return nil, s.r.serveErr(err)
		}
		return nil, io.EOF
	case errors.As(err, &se):
		return nil, se
	}
	return nil, serve.Internalf("%s: bad stream frame: %v", s.r.target, err)
}

// Close releases the stream; safe at any point and more than once. It
// reads what is left of the RPC first, so cancel the stream's ctx to
// abandon it sooner.
func (s *Stream) Close() error {
	if s.cs == nil {
		return nil
	}
	err := s.cs.Close()
	s.cs = nil
	if s.err == nil {
		s.err = serve.Unavailablef("%s: stream closed", s.r.target)
	}
	return err
}
