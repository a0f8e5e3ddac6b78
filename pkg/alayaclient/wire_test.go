package alayaclient

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
	agrpc "repro/internal/serve/grpc"
	"repro/internal/serve/grpc/pb"
)

// httpWire returns a Client of the env's service over HTTP whose
// step_stream calls, when chunks is non-nil, are answered with the chunks
// as the response body.
func (e *testEnv) httpWire(t *testing.T, chunks [][]byte) *Client {
	t.Helper()
	real := e.srv.Handler()
	return httpClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if chunks == nil || !strings.HasSuffix(r.URL.Path, "/step_stream") {
			real.ServeHTTP(w, r)
			return
		}
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", serve.FrameContentType)
		for _, c := range chunks {
			w.Write(c)
		}
	}))
}

// httpClient returns a Client over HTTP of whatever h answers.
func httpClient(t *testing.T, h http.Handler) *Client {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	c, err := NewClient(WithBaseURL(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// grpcWire is httpWire over gRPC: each chunk is the frame of one stream
// message, and the RPC ends OK after the last.
func (e *testEnv) grpcWire(t *testing.T, chunks [][]byte) *Client {
	t.Helper()
	real := agrpc.NewServer(e.srv.Service()).Handler()
	return grpcClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if chunks == nil || r.URL.Path != pb.MethodStepStream {
			real.ServeHTTP(w, r)
			return
		}
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", agrpc.ContentType)
		w.Header().Set("Trailer", "Grpc-Status")
		for _, c := range chunks {
			w.Write(grpcMessage((&pb.FrameResponse{Frame: c}).AppendProto(nil)))
		}
		w.Header().Set("Grpc-Status", "0")
	}))
}

// grpcMessage frames msg as one length-prefixed gRPC message.
func grpcMessage(msg []byte) []byte {
	return append([]byte{0, byte(len(msg) >> 24), byte(len(msg) >> 16), byte(len(msg) >> 8), byte(len(msg))}, msg...)
}

// grpcClient returns a Client over gRPC (cleartext HTTP/2) of whatever h
// answers.
func grpcClient(t *testing.T, h http.Handler) *Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := agrpc.NewHTTPServer(ln.Addr().String(), h)
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	c, err := NewClient(WithGRPCAddr(ln.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestWireParityErrors: each failure comes back as an *APIError of the
// same kind over HTTP and over gRPC — a daemon that is not there, a
// session that is not there, a ragged query grid, a step stream that
// ends without its terminator or runs on past it, a proxy that answers a
// status with no typed body, and a 200 that does not decode.
func TestWireParityErrors(t *testing.T) {
	e := newTestEnv(t, 300)
	ctx := context.Background()
	item, err := serve.AppendStreamItemFrame(nil, &StepResponse{ContextLen: 1, Layers: [][]AttentionResponse{{{Output: []float32{1}}}}})
	if err != nil {
		t.Fatal(err)
	}
	end := serve.AppendStreamEndFrame(nil, 1, serve.ErrorEnvelope{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	wires := []struct {
		name  string
		dead  Option
		dial  func(*testing.T, [][]byte) *Client
		proxy func(*testing.T, http.Handler) *Client
	}{
		{"http", WithBaseURL("http://" + deadAddr), e.httpWire, httpClient},
		{"grpc", WithGRPCAddr(deadAddr), e.grpcWire, grpcClient},
	}
	// teapot is a proxy answering every call with a status of its own and
	// no typed error body.
	teapot := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("<html>proxy page</html>"))
	})
	// garbled answers 200 in the caller's wire format with a body that does
	// not decode: JSON that is not JSON, a gRPC message that is not a proto.
	garbled := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if r.Header.Get("Content-Type") != agrpc.ContentType {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte("{not json"))
			return
		}
		w.Header().Set("Content-Type", agrpc.ContentType)
		w.Header().Set("Trailer", "Grpc-Status")
		w.Write(grpcMessage([]byte{0xff}))
		w.Header().Set("Grpc-Status", "0")
	})
	steps := e.streamSteps(1)
	ragged := e.queries(0)
	ragged[0] = ragged[0][:1]
	drain := func(c *Client, id int64, steps []StepRequest) error {
		st, err := (&Session{c: c, ID: id}).StepStream(ctx, steps)
		if err != nil {
			return err
		}
		defer st.Close()
		for {
			if _, err := st.Recv(); err != nil {
				return err
			}
		}
	}
	withSession := func(c *Client, do func(*Session) error) error {
		sess, err := c.CreateSession(ctx, e.inst.Doc)
		if err != nil {
			return err
		}
		defer sess.CloseSession(ctx)
		return do(sess)
	}
	rows := []struct {
		name   string
		dead   bool
		chunks [][]byte // a crafted step_stream answer; nil serves the real one
		do     func(*Client) error
		kind   serve.Kind
	}{
		{"dead daemon healthz", true, nil, func(c *Client) error { _, err := c.Healthz(ctx); return err }, serve.KindUnavailable},
		{"dead daemon create", true, nil, func(c *Client) error { _, err := c.CreateSession(ctx, e.inst.Doc); return err }, serve.KindUnavailable},
		{"dead daemon stream", true, nil, func(c *Client) error { return drain(c, 1, steps) }, serve.KindUnavailable},
		{"unknown session prefill", false, nil, func(c *Client) error { _, err := (&Session{c: c, ID: 999999}).Prefill(ctx); return err }, serve.KindNotFound},
		{"unknown session step", false, nil, func(c *Client) error {
			_, err := (&Session{c: c, ID: 999999}).Step(ctx, Token{}, e.queries(0))
			return err
		}, serve.KindNotFound},
		{"unknown session stream", false, nil, func(c *Client) error { return drain(c, 999999, steps) }, serve.KindNotFound},
		{"ragged step", false, nil, func(c *Client) error {
			return withSession(c, func(s *Session) error { _, err := s.Step(ctx, Token{}, ragged); return err })
		}, serve.KindBadRequest},
		{"ragged stream", false, nil, func(c *Client) error {
			return withSession(c, func(s *Session) error { return drain(c, s.ID, []StepRequest{{Queries: ragged}}) })
		}, serve.KindBadRequest},
		{"stream without a terminator", false, [][]byte{item}, func(c *Client) error { return drain(c, 1, steps) }, serve.KindInternal},
		{"stream past its terminator", false, [][]byte{item, end, make([]byte, 28)}, func(c *Client) error { return drain(c, 1, steps) }, serve.KindInternal},
	}
	check := func(row, wire string, err error, kind serve.Kind) {
		t.Helper()
		if ae, ok := err.(*APIError); !ok || ae.Kind != kind || ae.Status != serve.HTTPStatus(kind) {
			t.Errorf("%s over %s: err %v (%T), want a %s *APIError", row, wire, err, err, kind)
		}
	}
	for _, row := range rows {
		for _, w := range wires {
			var c *Client
			if row.dead {
				if c, err = NewClient(w.dead); err != nil {
					t.Fatal(err)
				}
			} else {
				c = w.dial(t, row.chunks)
			}
			check(row.name, w.name, row.do(c), row.kind)
		}
	}

	// Something answered, so none of these is unavailable.
	healthz := func(c *Client) error { _, err := c.Healthz(ctx); return err }
	proxied := []struct {
		name string
		h    http.Handler
		do   func(*Client) error
	}{
		{"proxy 418 healthz", teapot, healthz},
		{"proxy 418 stream", teapot, func(c *Client) error { return drain(c, 1, steps) }},
		{"undecodable 200 healthz", garbled, healthz},
	}
	for _, row := range proxied {
		for _, w := range wires {
			check(row.name, w.name, row.do(w.proxy(t, row.h)), serve.KindInternal)
		}
	}
}
