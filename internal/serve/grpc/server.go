package grpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/serve/grpc/pb"
)

// Server serves the alaya.v1.AlayaDB gRPC service over a serve.Core —
// the single-node *serve.Service or the cluster shard router, the wire
// cannot tell them apart. It is an http.Handler: mount it on any
// h2c-capable http.Server (see NewHTTPServer) — including one shared
// with the HTTP transport, since the two route by path and both drain
// through the same http.Server.Shutdown. Per-endpoint metrics come for
// free: the Service core counts every call, whichever transport carried
// it.
type Server struct {
	core    serve.Core
	svc     *serve.Service
	maxRecv int64
}

// Option configures a Server.
type Option func(*Server)

// WithMaxRecvBytes bounds one decoded request message (the gRPC analog
// of serve.WithMaxBodyBytes). Zero or negative keeps the default.
func WithMaxRecvBytes(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxRecv = n
		}
	}
}

// NewServer returns a gRPC transport over svc. The Service is shared,
// not owned: closing it is the caller's job (alayad closes it once after
// both transports drain).
func NewServer(svc *serve.Service, opts ...Option) *Server {
	srv := NewServerFor(svc, opts...)
	srv.svc = svc
	return srv
}

// NewServerFor returns a gRPC transport over any Core — a local Service
// or a cluster router. The core is shared, not owned.
func NewServerFor(c serve.Core, opts ...Option) *Server {
	s := &Server{core: c, maxRecv: DefaultMaxRecvBytes}
	for _, fn := range opts {
		fn(s)
	}
	return s
}

// Service returns the local single-node core, or nil when the server
// fronts a router or other non-Service Core.
func (s *Server) Service() *serve.Service { return s.svc }

// Core returns the transport-agnostic core.
func (s *Server) Core() serve.Core { return s.core }

// Handler returns the handler serving every AlayaDB method.
func (s *Server) Handler() http.Handler { return s }

// NewHTTPServer wraps handler in an http.Server configured for
// cleartext HTTP/2 (h2c), which the gRPC wire protocol requires; h2c
// still serves plain HTTP/1.1 requests, so a handler hosting both
// transports keeps working for HTTP/1 clients.
func NewHTTPServer(addr string, handler http.Handler) *http.Server {
	protocols := new(http.Protocols)
	protocols.SetHTTP1(true)
	protocols.SetHTTP2(true)
	protocols.SetUnencryptedHTTP2(true)
	return &http.Server{Addr: addr, Handler: handler, Protocols: protocols}
}

// ServeHTTP implements the gRPC server side of one RPC.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		// Not a gRPC request at all: answer at the HTTP layer, as
		// grpc-go does.
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "gRPC requires POST", http.StatusMethodNotAllowed)
		return
	}
	if !isGRPCContentType(r.Header.Get("Content-Type")) {
		http.Error(w, "content-type must be "+ContentType, http.StatusUnsupportedMediaType)
		return
	}

	// Commit the response shape up front: gRPC responses are 200 with the
	// RPC's real outcome in the trailers, which must be declared before
	// the header block is written.
	h := w.Header()
	h.Set("Content-Type", ContentType)
	h.Set("Trailer", statusTrailer+", "+messageTrailer+", "+KindTrailer)

	ctx := r.Context()
	if tv := r.Header.Get(timeoutHeader); tv != "" {
		d, err := decodeTimeout(tv)
		if err != nil {
			s.finish(w, serve.BadRequestf("%v", err))
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	buf := getMsgBuf()
	defer func() { putMsgBuf(buf) }()
	var err error
	buf, err = readMessage(http.MaxBytesReader(w, r.Body, s.maxRecv+5), buf, s.maxRecv)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.Is(err, errTooLarge) || errors.As(err, &mbe) {
			s.finish(w, &serve.Error{Kind: serve.KindTooLarge, Message: fmt.Sprintf("read request: %v", err)})
		} else {
			s.finish(w, serve.BadRequestf("read request: %v", err))
		}
		return
	}

	if r.URL.Path == pb.MethodStepStream {
		s.stepStream(ctx, w, buf)
		return
	}

	resp, serr := s.dispatch(r.URL.Path, buf)
	if serr != nil {
		s.finish(w, serr)
		return
	}
	writeMessage(w, resp)
	s.finish(w, nil)
}

// writeMessage writes one length-prefixed gRPC message through a pooled
// buffer: 5-byte prefix reserved up front, proto appended after it, the
// length patched in, one Write.
func writeMessage(w io.Writer, m pb.Message) error {
	buf := marshalMessage(m)
	_, err := w.Write(buf)
	putMsgBuf(buf)
	return err
}

// finish writes the status trailers — the RPC's real outcome, whatever
// HTTP bytes preceded them. A failed RPC that never wrote a message goes
// out with headers and trailers only, the compact error shape of the
// gRPC wire.
func (s *Server) finish(w http.ResponseWriter, err error) {
	h := w.Header()
	if err == nil {
		h.Set(statusTrailer, "0")
		h.Set(messageTrailer, "")
		h.Set(KindTrailer, "")
		return
	}
	code, msg, kind := statusFromError(err)
	h.Set(statusTrailer, strconv.Itoa(int(code)))
	h.Set(messageTrailer, encodeGRPCMessage(msg))
	h.Set(KindTrailer, string(kind))
}

// dispatch decodes, runs, and encodes one unary RPC.
func (s *Server) dispatch(path string, body []byte) (pb.Message, error) {
	var sess pb.SessionRequest
	switch path {
	case pb.MethodPrefill, pb.MethodStore, pb.MethodCloseSession:
		if err := sess.UnmarshalProto(body); err != nil {
			return nil, serve.BadRequestf("bad request proto: %v", err)
		}
	}
	switch path {
	case pb.MethodCreateSession:
		var req pb.CreateSessionRequest
		if err := req.UnmarshalProto(body); err != nil {
			return nil, serve.BadRequestf("bad request proto: %v", err)
		}
		doc := &serve.CreateSessionRequest{
			Seed:   req.Seed,
			Tokens: make([]model.Token, len(req.Tokens)),
			SpanLo: int(req.SpanLo),
			SpanHi: int(req.SpanHi),
		}
		for i, t := range req.Tokens {
			doc.Tokens[i] = model.Token{Topic: int(t.Topic), Payload: int(t.Payload), Salience: t.Salience}
		}
		resp, err := s.core.CreateSession(doc)
		if err != nil {
			return nil, err
		}
		return &pb.CreateSessionResponse{SessionID: resp.SessionID, Reused: int64(resp.Reused)}, nil

	case pb.MethodPrefill:
		resp, err := s.core.Prefill(sess.SessionID)
		if err != nil {
			return nil, err
		}
		return &pb.PrefillResponse{Prefilled: int64(resp.Prefilled), ContextLen: int64(resp.ContextLen)}, nil

	case pb.MethodStep:
		var sr serve.StepRequest
		return s.frameCall(body, &sr, func(id int64) (interface{}, error) { return s.core.Step(id, &sr) })

	case pb.MethodStore:
		resp, err := s.core.Store(sess.SessionID)
		if err != nil {
			return nil, err
		}
		return &pb.StoreResponse{StoredTokens: int64(resp.StoredTokens)}, nil

	case pb.MethodCloseSession:
		resp, err := s.core.CloseSession(sess.SessionID)
		if err != nil {
			return nil, err
		}
		return &pb.CloseSessionResponse{Status: resp.Status}, nil

	case pb.MethodHealthz:
		hz := s.core.Healthz()
		return &pb.HealthzResponse{Status: hz.Status, OpenSessions: int64(hz.OpenSessions)}, nil

	case pb.MethodStats:
		resp, err := s.core.Stats()
		if err != nil {
			return nil, err
		}
		doc, jerr := json.Marshal(resp)
		if jerr != nil {
			return nil, serve.Internalf("encode stats: %v", jerr)
		}
		return &pb.StatsResponse{StatsJSON: doc}, nil
	}
	return nil, &serve.Error{Kind: serve.KindMethodNotAllowed, Message: "unknown method " + path}
}

// frameCall runs one tensor RPC: FrameRequest in, the inner binary frame
// decoded with the same serve codec the HTTP wire uses, and the response
// re-encoded as a frame — bit-identical to the HTTP binary path.
func (s *Server) frameCall(body []byte, req interface{}, call func(id int64) (interface{}, error)) (pb.Message, error) {
	var fr pb.FrameRequest
	if err := fr.UnmarshalProto(body); err != nil {
		return nil, serve.BadRequestf("bad request proto: %v", err)
	}
	if err := serve.UnmarshalFrame(fr.Frame, req); err != nil {
		return nil, serve.BadRequestf("bad frame: %v", err)
	}
	resp, err := call(fr.SessionID)
	if err != nil {
		return nil, err
	}
	out, ferr := serve.MarshalFrame(resp)
	if rel, ok := resp.(interface{ Release() }); ok {
		rel.Release()
	}
	if ferr != nil {
		return nil, serve.Internalf("encode frame: %v", ferr)
	}
	return &pb.FrameResponse{Frame: out}, nil
}

// stepStream serves the server-streaming StepStream RPC. Each response
// message carries one FrameStreamItem wrapping a FrameStepResponse,
// flushed as its step completes so the engine overlaps reading step N with
// decoding step N+1; the last message carries the FrameStreamEnd
// terminator — the exact frame sequence of the HTTP binary stream, one
// frame per gRPC message. Errors before the first item are a gRPC
// status; after that the stream-end frame carries them and the status is
// OK, mirroring the HTTP transport's committed-200 semantics.
func (s *Server) stepStream(ctx context.Context, w http.ResponseWriter, body []byte) {
	var fr pb.FrameRequest
	if err := fr.UnmarshalProto(body); err != nil {
		s.finish(w, serve.BadRequestf("bad request proto: %v", err))
		return
	}
	var sreq serve.StepsRequest
	if err := serve.UnmarshalFrame(fr.Frame, &sreq); err != nil {
		s.finish(w, serve.BadRequestf("bad frame: %v", err))
		return
	}

	flusher, _ := w.(http.Flusher)
	started := false
	items := 0
	frameBuf := getMsgBuf() // inner frame scratch, reused per item
	defer func() { putMsgBuf(frameBuf) }()

	writeFrame := func(frame []byte) error {
		item := pb.FrameResponse{Frame: frame}
		if err := writeMessage(w, &item); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}

	sink := func(resp *serve.StepResponse) error {
		var err error
		frameBuf, err = serve.AppendStreamItemFrame(frameBuf[:0], resp)
		if err != nil {
			return serve.Internalf("encode stream item: %v", err)
		}
		if err := writeFrame(frameBuf); err != nil {
			return err
		}
		started = true
		items++
		return nil
	}

	err := s.core.StepStream(ctx, fr.SessionID, &sreq, sink)
	if err != nil && !started {
		s.finish(w, err)
		return
	}
	var env serve.ErrorEnvelope
	if err != nil {
		env = serve.Envelope(err)
	}
	frameBuf = serve.AppendStreamEndFrame(frameBuf[:0], items, env)
	if werr := writeFrame(frameBuf); werr != nil {
		return // peer gone; nothing left to say
	}
	s.finish(w, nil)
}
