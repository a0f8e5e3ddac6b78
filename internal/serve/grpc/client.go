package grpc

import (
	"bytes"
	"context"
	"crypto/tls"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/grpc/pb"
)

// ClientConn is a minimal gRPC client over net/http's h2c transport:
// unary Invoke plus server-streaming OpenStream, enough to drive the
// AlayaDB service. One ClientConn is safe for concurrent use and
// multiplexes every RPC over its HTTP/2 connection pool.
type ClientConn struct {
	base string // scheme://host:port
	hc   *http.Client
}

// DialOption configures a ClientConn.
type DialOption func(*ClientConn)

// WithHTTPClient substitutes the underlying HTTP client — it must speak
// unencrypted HTTP/2 for real listeners (Dial's default does), or be a
// test client whose transport carries h2c some other way.
func WithHTTPClient(hc *http.Client) DialOption {
	return func(c *ClientConn) { c.hc = hc }
}

// WithDialTLS dials the target over TLS (scheme https) using cfg, which
// may be nil for the host defaults. ALPN negotiates h2 — the encrypted
// twin of the cleartext h2c default. Implies the grpcs:// scheme when
// the target carried none.
func WithDialTLS(cfg *tls.Config) DialOption {
	return func(c *ClientConn) {
		if cfg != nil {
			cfg = cfg.Clone()
		}
		protocols := new(http.Protocols)
		protocols.SetHTTP2(true)
		c.hc = &http.Client{Transport: &http.Transport{
			Protocols:         protocols,
			TLSClientConfig:   cfg,
			ForceAttemptHTTP2: true,
		}}
		if strings.HasPrefix(c.base, "http://") {
			c.base = "https://" + strings.TrimPrefix(c.base, "http://")
		}
	}
}

// Dial returns a connection to a gRPC server at target ("host:port",
// "http://host:port", or "grpcs://host:port" for TLS+ALPN). There is no
// handshake at dial time — like gRPC proper, connection establishment is
// lazy.
func Dial(target string, opts ...DialOption) *ClientConn {
	var wantTLS bool
	switch {
	case strings.HasPrefix(target, "grpcs://"):
		target = "https://" + strings.TrimPrefix(target, "grpcs://")
		wantTLS = true
	case strings.HasPrefix(target, "grpc://"):
		target = "http://" + strings.TrimPrefix(target, "grpc://")
	case strings.HasPrefix(target, "https://"):
		wantTLS = true
	case !strings.Contains(target, "://"):
		target = "http://" + target
	}
	protocols := new(http.Protocols)
	protocols.SetUnencryptedHTTP2(true)
	c := &ClientConn{
		base: strings.TrimSuffix(target, "/"),
		hc:   &http.Client{Transport: &http.Transport{Protocols: protocols}},
	}
	if wantTLS {
		WithDialTLS(nil)(c)
	}
	for _, fn := range opts {
		fn(c)
	}
	return c
}

// unavailableErr wraps a transport-level failure — a dead dial, a reset
// connection, a load-shedding 503 — as the typed UNAVAILABLE status, so
// callers branch on one error shape whether the node refused at the TCP,
// HTTP, or gRPC layer.
func unavailableErr(format string, args ...interface{}) *StatusError {
	return &StatusError{
		Code:    CodeUnavailable,
		Kind:    serve.KindUnavailable,
		Message: fmt.Sprintf(format, args...),
	}
}

// Close releases idle connections.
func (c *ClientConn) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

// newRequest builds the POST for one RPC, encoding in as the body.
func (c *ClientConn) newRequest(ctx context.Context, method string, in pb.Message) (*http.Request, func(), error) {
	buf := marshalMessage(in)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+method, bytes.NewReader(buf))
	if err != nil {
		putMsgBuf(buf)
		return nil, nil, err
	}
	req.Header.Set("Content-Type", ContentType)
	req.Header.Set("TE", "trailers")
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set(timeoutHeader, encodeTimeout(time.Until(dl)))
	}
	return req, func() { putMsgBuf(buf) }, nil
}

// statusOf extracts the gRPC status triple from a header or trailer set;
// ok is false when no grpc-status is present there.
func statusOf(h http.Header) (err error, ok bool) {
	v := h.Get(statusTrailer)
	if v == "" {
		return nil, false
	}
	code, cerr := strconv.Atoi(v)
	if cerr != nil || code < 0 {
		return fmt.Errorf("grpc: malformed grpc-status %q", v), true
	}
	if Code(code) == CodeOK {
		return nil, true
	}
	st := &StatusError{
		Code:    Code(code),
		Message: decodeGRPCMessage(h.Get(messageTrailer)),
		Kind:    serve.Kind(h.Get(KindTrailer)),
	}
	if st.Kind == "" {
		st.Kind = KindForCode(st.Code)
	}
	return st, true
}

// checkResponse validates the HTTP layer of a gRPC response and surfaces
// a headers-level (trailers-only) status if present.
func checkResponse(resp *http.Response) error {
	if resp.StatusCode != http.StatusOK {
		// A non-200 never came from the gRPC layer (which always answers
		// 200 + trailers): it is a proxy or server shedding load. Surface
		// the retryable ones as typed UNAVAILABLE.
		switch resp.StatusCode {
		case http.StatusServiceUnavailable, http.StatusBadGateway, http.StatusGatewayTimeout:
			return unavailableErr("grpc: transport error: HTTP %s", resp.Status)
		case http.StatusTooManyRequests:
			return &StatusError{
				Code:    CodeResourceExhausted,
				Kind:    serve.KindOverloaded,
				Message: fmt.Sprintf("grpc: transport error: HTTP %s", resp.Status),
			}
		}
		return fmt.Errorf("grpc: transport error: HTTP %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !isGRPCContentType(ct) {
		return fmt.Errorf("grpc: response content-type %q is not gRPC", ct)
	}
	if err, ok := statusOf(resp.Header); ok {
		// Trailers-only response: the status arrived in the header block.
		if err == nil {
			return io.EOF // OK status with no messages
		}
		return err
	}
	return nil
}

// Invoke performs one unary RPC, decoding the single response message
// into out. Non-OK statuses return *StatusError.
func (c *ClientConn) Invoke(ctx context.Context, method string, in, out pb.Message) error {
	req, done, err := c.newRequest(ctx, method, in)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	done()
	if err != nil {
		return unavailableErr("grpc: %s: dial %s: %v", method, c.base, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if err := checkResponse(resp); err != nil {
		if err == io.EOF {
			return fmt.Errorf("grpc: %s: OK status with no response message", method)
		}
		return err
	}

	buf := getMsgBuf()
	defer putMsgBuf(buf)
	buf, err = readMessage(resp.Body, buf, DefaultMaxRecvBytes)
	if err == io.EOF {
		// No message: the outcome is in the trailers (an error status).
		if terr, ok := statusOf(resp.Trailer); ok && terr != nil {
			return terr
		}
		return fmt.Errorf("grpc: %s: response ended without message or status", method)
	}
	if err != nil {
		return err
	}
	if uerr := out.UnmarshalProto(buf); uerr != nil {
		return fmt.Errorf("grpc: %s: bad response proto: %v", method, uerr)
	}
	// Drain to the trailers and check the authoritative status.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	terr, ok := statusOf(resp.Trailer)
	if !ok {
		return fmt.Errorf("grpc: %s: server sent no grpc-status", method)
	}
	return terr
}

// ClientStream reads the messages of one server-streaming RPC.
type ClientStream struct {
	method string
	resp   *http.Response
	buf    []byte
	max    int64
	done   bool
}

// OpenStream starts a server-streaming RPC. The returned stream must be
// closed. An RPC the server failed before streaming surfaces on the
// first Recv.
func (c *ClientConn) OpenStream(ctx context.Context, method string, in pb.Message) (*ClientStream, error) {
	req, done, err := c.newRequest(ctx, method, in)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	done()
	if err != nil {
		return nil, unavailableErr("grpc: %s: dial %s: %v", method, c.base, err)
	}
	if err := checkResponse(resp); err != nil && err != io.EOF {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, err
	}
	return &ClientStream{method: method, resp: resp, buf: getMsgBuf(), max: DefaultMaxRecvBytes}, nil
}

// Recv decodes the next streamed message into out. The end of the
// stream is io.EOF when the server finished OK, or the *StatusError it
// finished with.
func (s *ClientStream) Recv(out pb.Message) error {
	if s.done {
		return io.EOF
	}
	var err error
	s.buf, err = readMessage(s.resp.Body, s.buf[:0], s.max)
	if err == io.EOF {
		s.done = true
		if terr, ok := statusOf(s.resp.Trailer); ok {
			if terr != nil {
				return terr
			}
			return io.EOF
		}
		return fmt.Errorf("grpc: %s: stream ended without grpc-status", s.method)
	}
	if err != nil {
		s.done = true
		return err
	}
	if uerr := out.UnmarshalProto(s.buf); uerr != nil {
		s.done = true
		return fmt.Errorf("grpc: %s: bad stream message: %v", s.method, uerr)
	}
	return nil
}

// Close releases the stream; safe after EOF and on abandonment
// mid-stream (the server sees the RPC cancelled).
func (s *ClientStream) Close() error {
	if s.buf != nil {
		putMsgBuf(s.buf)
		s.buf = nil
	}
	io.Copy(io.Discard, s.resp.Body)
	return s.resp.Body.Close()
}
