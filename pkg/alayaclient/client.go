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
// (application/x-alaya-frame; see internal/serve for the wire layout) and
// fall back to JSON automatically if the server rejects it; WithJSONWire
// forces JSON. Both codecs carry float32 values exactly, so the outputs
// are bitwise-identical either way. The Client reuses connections and is
// safe for concurrent use; a Session serializes its own mutating calls
// server-side but may be shared across goroutines freely.
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
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/serve"
	agrpc "repro/internal/serve/grpc"
	"repro/internal/serve/grpc/pb"
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

// IsNotFound reports whether err is an APIError with kind not_found.
func IsNotFound(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Kind == serve.KindNotFound
}

// IsOverloaded reports whether err is an APIError with kind overloaded —
// the scheduler's backpressure signal; back off and retry.
func IsOverloaded(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Kind == serve.KindOverloaded
}

// Client talks to one alayad, over HTTP (WithBaseURL) or gRPC
// (WithGRPCAddr / WithGRPCAddrs). Safe for concurrent use.
type Client struct {
	base      string
	hc        *http.Client
	gc        *agrpc.ClientConn   // non-nil in gRPC mode: the first candidate
	gcs       []*agrpc.ClientConn // gRPC mode: every candidate, failover order
	gcur      atomic.Int64        // index of the connection calls currently prefer
	forceJSON atomic.Bool
}

// Option configures a Client.
type Option func(*Client)

// WithBaseURL sets the daemon address (e.g. "http://localhost:8265").
func WithBaseURL(base string) Option {
	return func(c *Client) { c.base = strings.TrimRight(base, "/") }
}

// WithHTTPClient substitutes the underlying HTTP client (timeouts,
// custom transports, test doubles).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithJSONWire forces the JSON codec on tensor endpoints instead of the
// binary frame wire.
func WithJSONWire() Option {
	return func(c *Client) { c.forceJSON.Store(true) }
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
	if c.base == "" && c.gc == nil {
		return nil, errors.New("alayaclient: WithBaseURL or WithGRPCAddr is required")
	}
	if c.base != "" && c.gc != nil {
		return nil, errors.New("alayaclient: WithBaseURL and WithGRPCAddr are mutually exclusive")
	}
	if c.hc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 64
		c.hc = &http.Client{Transport: tr}
	}
	return c, nil
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

// postTensor posts a tensor-heavy request: binary frames by default,
// falling back to JSON permanently if the server rejects the media type.
func (c *Client) postTensor(ctx context.Context, path string, in, out interface{}) error {
	if !c.forceJSON.Load() {
		body, err := serve.MarshalFrame(in)
		if err == nil {
			err = c.do(ctx, http.MethodPost, path, serve.FrameContentType, body, serve.FrameContentType, out)
			if ae, ok := err.(*APIError); ok && (ae.Status == http.StatusUnsupportedMediaType || ae.Status == http.StatusNotAcceptable) {
				c.forceJSON.Store(true) // server speaks no frames; stay on JSON
			} else {
				return err
			}
		}
		// Requests the fixed-geometry frame layout cannot represent (e.g.
		// ragged query grids) go over JSON, where the server can reject
		// them with its typed validation error.
	}
	return c.postJSON(ctx, path, in, out)
}

// Healthz probes the daemon's liveness endpoint.
func (c *Client) Healthz(ctx context.Context) (HealthzResponse, error) {
	if c.gc != nil {
		return c.grpcHealthz(ctx)
	}
	var hz HealthzResponse
	err := c.do(ctx, http.MethodGet, "/v1/healthz", "", nil, "", &hz)
	return hz, err
}

// Stats fetches the DB, tier, scheduler and per-endpoint
// statistics.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	if c.gc != nil {
		return c.grpcStats(ctx)
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
	if c.gc != nil {
		return c.grpcCreateSession(ctx, doc)
	}
	var resp serve.CreateSessionResponse
	if err := c.postJSON(ctx, "/v1/sessions", serve.DocumentWire{Seed: doc.Seed, Tokens: doc.Tokens}, &resp); err != nil {
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
	if s.c.gc != nil {
		return s.grpcPrefill(ctx)
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
	var resp StepResponse
	req := &serve.StepRequest{Token: tok, Queries: queries}
	if s.c.gc != nil {
		return resp, s.grpcTensor(ctx, pb.MethodStep, req, &resp)
	}
	err := s.c.postTensor(ctx, s.path("step"), req, &resp)
	return resp, err
}

// Store persists the session's full state as a reusable stored context.
func (s *Session) Store(ctx context.Context) (serve.StoreResponse, error) {
	if s.c.gc != nil {
		return s.grpcStore(ctx)
	}
	var resp serve.StoreResponse
	err := s.c.postJSON(ctx, s.path("store"), nil, &resp)
	return resp, err
}

// CloseSession closes the session server-side (the SDK name now matches
// the Service operation).
func (s *Session) CloseSession(ctx context.Context) error {
	if s.c.gc != nil {
		return s.grpcCloseSession(ctx)
	}
	return s.c.do(ctx, http.MethodDelete, s.path(""), "", nil, "", nil)
}
