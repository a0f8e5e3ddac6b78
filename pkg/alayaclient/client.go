// Package alayaclient is the public Go SDK for AlayaDB's attention
// service: the typed, tested definition of the wire protocol that
// cmd/alayactl, the examples and the benchmark/ workloads all consume.
//
// A Client connects an inference engine to a running alayad:
//
//	cli, err := alayaclient.NewClient(alayaclient.WithBaseURL("http://localhost:8265"))
//	sess, err := cli.CreateSession(ctx, doc)   // reuse any stored prefix
//	sess.Prefill(ctx)                          // KV for unreused tokens
//	resp, err := sess.Step(ctx, tok, queries)  // one decoded token, ONE round trip
//	sess.Store(ctx)                            // persist for future reuse
//	sess.CloseSession(ctx)
//
// Step and StepStream are the only decode calls. Step ships the generated
// token plus the query vectors of every layer and head, and returns
// attention outputs for all of them in a single round trip. StepStream
// submits N steps in one round trip and iterates responses as the server
// streams them, one frame per completed step, so the engine
// consumes step N while the service decodes step N+1; a StepRequest with
// AttendOnly set computes attention without ingesting its token.
//
// Every method takes a context.Context as its first argument and honors
// cancellation, including mid-stream.
//
// By default tensor-heavy calls use the binary frame codec
// (application/x-alaya-frame; see internal/serve for the wire layout);
// WithJSONWire selects JSON instead. Both codecs carry float32 values
// exactly, so the outputs are bitwise-identical either way. The frame
// layout needs a rectangular query grid, so a ragged one fails on the
// client with a bad_request *APIError before anything is sent. The
// Client reuses connections and is safe for concurrent use; a Session
// serializes its own mutating calls server-side but may be shared across
// goroutines freely.
package alayaclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/model"
	"repro/internal/serve"
	agrpc "repro/internal/serve/grpc"
)

// Wire types re-exported from the service definition, so engine code only
// imports this package.
type (
	// Token is one document token.
	Token = model.Token
	// Document is a token sequence namespaced by a seed.
	Document = model.Document
	// StepRequest is one decode step: a token plus [layer][head] queries.
	StepRequest = serve.StepRequest
	// StepResponse carries [layer][head] attention outputs.
	StepResponse = serve.StepResponse
	// AttentionResponse is one head's output plus execution facts.
	AttentionResponse = serve.AttentionResponse
	// StatsResponse is the DB/endpoint statistics document.
	StatsResponse = serve.StatsResponse
	// HealthzResponse is the liveness probe body.
	HealthzResponse = serve.HealthzResponse
)

// APIError is a non-2xx response decoded from the server's typed error
// envelope.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Kind is the service error kind ("not_found", "bad_request", …).
	Kind serve.Kind
	// Message is the human-readable error.
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("alayaclient: %s (%s, http %d)", e.Message, e.Kind, e.Status)
}

func isKind(err error, kind serve.Kind) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Kind == kind
}

// IsNotFound reports whether err is an APIError with kind not_found.
func IsNotFound(err error) bool { return isKind(err, serve.KindNotFound) }

// IsOverloaded reports whether err is an APIError with kind overloaded —
// the scheduler's backpressure signal; back off and retry.
func IsOverloaded(err error) bool { return isKind(err, serve.KindOverloaded) }

// IsUnavailable reports whether err is an APIError with kind unavailable
// — the server is shutting down or otherwise not accepting work; resubmit
// to another replica rather than retrying here.
func IsUnavailable(err error) bool { return isKind(err, serve.KindUnavailable) }

// apiErr is the one place a typed serve error — what agrpc.Remote returns
// for every failure, and what a stream terminator carries on either wire —
// becomes the SDK's uniform *APIError: the exact kind with the kind's HTTP
// status, so IsNotFound/IsOverloaded/IsUnavailable work identically on
// both transports. Other errors, io.EOF included, pass through.
func apiErr(err error) error {
	if se, ok := err.(*serve.Error); ok {
		return &APIError{Status: serve.HTTPStatus(se.Kind), Kind: se.Kind, Message: se.Message}
	}
	return err
}

// frameErr wraps a client-side frame-encoding failure as a typed bad
// request: a request the frame layout cannot represent (a ragged query
// grid) fails here, on either transport, instead of after a round trip.
func frameErr(err error) error {
	return &APIError{Status: serve.HTTPStatus(serve.KindBadRequest), Kind: serve.KindBadRequest, Message: err.Error()}
}

// fromRemote returns what an agrpc.Remote call returned, its error as an
// *APIError.
func fromRemote[T any](v *T, err error) (T, error) {
	if err != nil {
		var zero T
		return zero, apiErr(err)
	}
	return *v, nil
}

// Client talks to one alayad, over HTTP (WithBaseURL) or gRPC
// (WithGRPCAddr). Safe for concurrent use.
type Client struct {
	base      string
	hc        *http.Client
	rc        *agrpc.Remote // non-nil in gRPC mode
	forceJSON bool
}

// Option configures a Client.
type Option func(*Client)

// WithBaseURL sets the daemon address (e.g. "http://localhost:8265").
func WithBaseURL(base string) Option {
	return func(c *Client) { c.base = strings.TrimRight(base, "/") }
}

// WithGRPCAddr routes the client over gRPC to addr ("host:port",
// "http://host:port", or "grpcs://host:port" for TLS — alayad's
// -grpc-addr listener). Every method, the StepStream iterator included,
// keeps its signature and *APIError model, and tensor payloads ride the
// same binary frames, so outputs are bitwise-equal across transports. The
// calls go through agrpc.Remote, the client the cluster router reaches
// its nodes with. Mutually exclusive with WithBaseURL; WithJSONWire does
// not apply.
func WithGRPCAddr(addr string, opts ...agrpc.DialOption) Option {
	return func(c *Client) { c.rc = agrpc.DialRemote(addr, opts...) }
}

// WithHTTPClient substitutes the underlying HTTP client (timeouts,
// custom transports, test doubles).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithJSONWire selects the JSON codec on tensor endpoints instead of the
// binary frame wire.
func WithJSONWire() Option {
	return func(c *Client) { c.forceJSON = true }
}

// NewClient builds a client from functional options. WithBaseURL is
// required. The default HTTP client keeps a generous idle-connection
// pool per host so concurrent decode loops reuse connections instead of
// re-dialing.
func NewClient(opts ...Option) (*Client, error) {
	c := &Client{}
	for _, o := range opts {
		o(c)
	}
	if c.base == "" && c.rc == nil {
		return nil, errors.New("alayaclient: WithBaseURL or WithGRPCAddr is required")
	}
	if c.base != "" && c.rc != nil {
		return nil, errors.New("alayaclient: WithBaseURL and WithGRPCAddr are mutually exclusive")
	}
	if c.hc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 64
		c.hc = &http.Client{Transport: tr}
	}
	return c, nil
}

// Close releases transport resources. In gRPC mode it drops the
// connection's idle HTTP/2 streams; an HTTP-mode client owns no
// connections of its own and Close is a no-op.
func (c *Client) Close() error {
	if c.rc == nil {
		return nil
	}
	return c.rc.Close()
}

// send issues one request and returns the response with its body open.
// Non-2xx responses are decoded into *APIError (body closed).
func (c *Client) send(ctx context.Context, method, path, contentType string, body []byte, accept string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		ae := &APIError{Status: resp.StatusCode}
		var env serve.ErrorEnvelope
		if jerr := json.NewDecoder(resp.Body).Decode(&env); jerr == nil && env.Error != "" {
			ae.Kind, ae.Message = env.Kind, env.Error
		} else {
			// No envelope (a proxy or load balancer answered, not the
			// service): still surface the retryable statuses as their
			// typed kinds so IsUnavailable/IsOverloaded hold on both
			// transports.
			switch resp.StatusCode {
			case http.StatusServiceUnavailable, http.StatusBadGateway, http.StatusGatewayTimeout:
				ae.Kind = serve.KindUnavailable
			case http.StatusTooManyRequests:
				ae.Kind = serve.KindOverloaded
			default:
				ae.Kind = serve.KindInternal
			}
			ae.Message = fmt.Sprintf("http status %d", resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, ae
	}
	return resp, nil
}

// do issues one request and decodes the response into out (which may be
// nil). Error responses become *APIError.
func (c *Client) do(ctx context.Context, method, path string, contentType string, body []byte, accept string, out interface{}) error {
	resp, err := c.send(ctx, method, path, contentType, body, accept)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if out == nil {
		return nil
	}
	if serve.IsFrameMedia(resp.Header.Get("Content-Type")) {
		data, rerr := io.ReadAll(resp.Body)
		if rerr != nil {
			return rerr
		}
		return serve.UnmarshalFrame(data, out)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// postJSON posts a JSON body (the non-tensor endpoints).
func (c *Client) postJSON(ctx context.Context, path string, in, out interface{}) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	} else {
		body = []byte("{}")
	}
	return c.do(ctx, http.MethodPost, path, "application/json", body, "", out)
}

// postTensor posts a tensor-heavy request: a binary frame, or JSON under
// WithJSONWire.
func (c *Client) postTensor(ctx context.Context, path string, in, out interface{}) error {
	if c.forceJSON {
		return c.postJSON(ctx, path, in, out)
	}
	body, err := serve.MarshalFrame(in)
	if err != nil {
		return frameErr(err)
	}
	return c.do(ctx, http.MethodPost, path, serve.FrameContentType, body, serve.FrameContentType, out)
}

// Healthz probes the daemon's liveness endpoint.
func (c *Client) Healthz(ctx context.Context) (HealthzResponse, error) {
	if c.rc != nil {
		return fromRemote(c.rc.Healthz(ctx))
	}
	var hz HealthzResponse
	err := c.do(ctx, http.MethodGet, "/v1/healthz", "", nil, "", &hz)
	return hz, err
}

// Stats fetches the DB, tier, scheduler and per-endpoint
// statistics.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	if c.rc != nil {
		return fromRemote(c.rc.Stats(ctx))
	}
	var st StatsResponse
	err := c.do(ctx, http.MethodGet, "/v1/stats", "", nil, "", &st)
	return st, err
}

// Session is a server-side session handle.
type Session struct {
	c *Client
	// ID is the server-assigned session id.
	ID int64
	// Reused is how many prompt tokens the server reused from stored
	// contexts; the engine only needs KV from that position on.
	Reused int
}

// CreateSession opens a session over doc, reusing the longest stored
// prefix.
func (c *Client) CreateSession(ctx context.Context, doc *Document) (*Session, error) {
	var resp serve.CreateSessionResponse
	var err error
	if c.rc != nil {
		resp, err = fromRemote(c.rc.CreateSession(ctx, &serve.CreateSessionRequest{Seed: doc.Seed, Tokens: doc.Tokens}))
	} else {
		err = c.postJSON(ctx, "/v1/sessions", serve.DocumentWire{Seed: doc.Seed, Tokens: doc.Tokens}, &resp)
	}
	if err != nil {
		return nil, err
	}
	return &Session{c: c, ID: resp.SessionID, Reused: resp.Reused}, nil
}

func (s *Session) path(action string) string {
	p := fmt.Sprintf("/v1/sessions/%d", s.ID)
	if action != "" {
		p += "/" + action
	}
	return p
}

// Prefill generates KV for every document token not covered by the
// reused prefix.
func (s *Session) Prefill(ctx context.Context) (serve.PrefillResponse, error) {
	if s.c.rc != nil {
		return fromRemote(s.c.rc.Prefill(ctx, s.ID))
	}
	var resp serve.PrefillResponse
	err := s.c.postJSON(ctx, s.path("prefill"), nil, &resp)
	return resp, err
}

// Step decodes one token in one round trip: tok is ingested across all
// layers, and queries (indexed [layer][query head], covering the full
// model geometry) are answered with attention outputs for every layer and
// head over the extended context. Server-side the step runs at once when
// the session has nothing queued, and otherwise queues behind the
// session's work; the output is bitwise-identical to a dedicated serial
// step.
func (s *Session) Step(ctx context.Context, tok Token, queries [][][]float32) (StepResponse, error) {
	req := &serve.StepRequest{Token: tok, Queries: queries}
	if s.c.rc != nil {
		return fromRemote(s.c.rc.Step(ctx, s.ID, req))
	}
	var resp StepResponse
	err := s.c.postTensor(ctx, s.path("step"), req, &resp)
	return resp, err
}

// Store persists the session's full state as a reusable stored context.
func (s *Session) Store(ctx context.Context) (serve.StoreResponse, error) {
	if s.c.rc != nil {
		return fromRemote(s.c.rc.Store(ctx, s.ID))
	}
	var resp serve.StoreResponse
	err := s.c.postJSON(ctx, s.path("store"), nil, &resp)
	return resp, err
}

// CloseSession closes the session server-side (the SDK name now matches
// the Service operation).
func (s *Session) CloseSession(ctx context.Context) error {
	if s.c.rc != nil {
		_, err := s.c.rc.CloseSession(ctx, s.ID)
		return apiErr(err)
	}
	return s.c.do(ctx, http.MethodDelete, s.path(""), "", nil, "", nil)
}
