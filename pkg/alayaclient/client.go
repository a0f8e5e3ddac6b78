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
// A Client reaches the daemon over HTTP (WithBaseURL) or gRPC
// (WithGRPCAddr) through one typed client of its Core — serve.Remote or
// agrpc.Remote, the latter shared with the cluster router — and every
// method is that one call, so the two wires cannot drift apart. Step and
// StepStream ride the binary frame codec (application/x-alaya-frame; see
// internal/serve for the wire layout) on both, which carries float32
// values exactly, so outputs are bitwise-identical across wires. The
// frame layout needs a rectangular query grid, so a ragged one fails on
// the client with a bad_request *APIError before anything is sent.
//
// Every failure is an *APIError with the same kind on either wire: the
// server's typed kind, unavailable for a daemon that cannot be reached
// (or a proxy's 502, 503 or 504), overloaded for a proxy's 429, and
// internal for a proxy's other statuses and for a response that does not
// decode — a stream that ends without its terminator or runs on past it
// included. The Client reuses
// connections and is safe for concurrent use; a Session serializes its
// own mutating calls server-side but may be shared across goroutines
// freely.
package alayaclient

import (
	"context"
	"errors"
	"fmt"
	"net/http"

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

// APIError is the one error type of every failed call, on either wire
// (see the package comment for the kinds).
type APIError struct {
	// Status is the kind's HTTP status (serve.HTTPStatus) on either
	// wire.
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

// apiErr is the one place a typed serve error — what either remote
// returns for every failure — becomes the SDK's uniform *APIError: the
// exact kind with the kind's HTTP status, so IsNotFound/IsOverloaded/
// IsUnavailable work identically on both wires. io.EOF passes through.
func apiErr(err error) error {
	if se, ok := err.(*serve.Error); ok {
		return &APIError{Status: serve.HTTPStatus(se.Kind), Kind: se.Kind, Message: se.Message}
	}
	return err
}

// fromRemote returns what a remote call returned, its error as an
// *APIError.
func fromRemote[T any](v *T, err error) (T, error) {
	if err != nil {
		var zero T
		return zero, apiErr(err)
	}
	return *v, nil
}

// remote is the client of the daemon's Core on one wire: serve.Remote
// over HTTP or agrpc.Remote over gRPC. Either returns every failure as a
// *serve.Error.
type remote interface {
	CreateSession(context.Context, *serve.CreateSessionRequest) (*serve.CreateSessionResponse, error)
	Prefill(context.Context, int64) (*serve.PrefillResponse, error)
	Step(context.Context, int64, *serve.StepRequest) (*serve.StepResponse, error)
	StepStream(context.Context, int64, *serve.StepsRequest) (*serve.Stream, error)
	Store(context.Context, int64) (*serve.StoreResponse, error)
	CloseSession(context.Context, int64) (*serve.CloseResponse, error)
	Healthz(context.Context) (*serve.HealthzResponse, error)
	Stats(context.Context) (*serve.StatsResponse, error)
	Close() error
}

// Client talks to one alayad, over HTTP (WithBaseURL) or gRPC
// (WithGRPCAddr). Safe for concurrent use.
type Client struct {
	r remote
}

// Option configures a Client.
type Option func(*options)

type options struct {
	base string
	hc   *http.Client
	grpc *agrpc.Remote
}

// WithBaseURL sets the daemon's HTTP address (e.g.
// "http://localhost:8265").
func WithBaseURL(base string) Option {
	return func(o *options) { o.base = base }
}

// WithGRPCAddr routes the client over gRPC to addr ("host:port",
// "http://host:port", or "grpcs://host:port" for TLS — alayad's
// -grpc-addr listener), through agrpc.Remote, the client the cluster
// router reaches its nodes with. Every method, the StepStream iterator
// included, keeps its signature and *APIError model. Mutually exclusive
// with WithBaseURL.
func WithGRPCAddr(addr string, opts ...agrpc.DialOption) Option {
	return func(o *options) { o.grpc = agrpc.DialRemote(addr, opts...) }
}

// WithHTTPClient substitutes the underlying HTTP client (timeouts,
// custom transports, test doubles) of a WithBaseURL client.
func WithHTTPClient(hc *http.Client) Option {
	return func(o *options) { o.hc = hc }
}

// NewClient builds a client from functional options. WithBaseURL or
// WithGRPCAddr is required. Without WithHTTPClient, an HTTP client keeps
// a generous idle-connection pool per host so concurrent decode loops
// reuse connections instead of re-dialing.
func NewClient(opts ...Option) (*Client, error) {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	switch {
	case o.base != "" && o.grpc != nil:
		return nil, errors.New("alayaclient: WithBaseURL and WithGRPCAddr are mutually exclusive")
	case o.grpc != nil:
		return &Client{r: o.grpc}, nil
	case o.base != "":
		return &Client{r: serve.NewRemote(o.base, o.hc)}, nil
	}
	return nil, errors.New("alayaclient: WithBaseURL or WithGRPCAddr is required")
}

// Close releases transport resources: a gRPC client drops its idle
// HTTP/2 connections, and an HTTP client, whose connections belong to
// its http.Client, does nothing.
func (c *Client) Close() error { return c.r.Close() }

// Healthz probes the daemon's liveness endpoint.
func (c *Client) Healthz(ctx context.Context) (HealthzResponse, error) {
	return fromRemote(c.r.Healthz(ctx))
}

// Stats fetches the DB, tier, scheduler and per-endpoint
// statistics.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	return fromRemote(c.r.Stats(ctx))
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
	resp, err := fromRemote(c.r.CreateSession(ctx, &serve.CreateSessionRequest{Seed: doc.Seed, Tokens: doc.Tokens}))
	if err != nil {
		return nil, err
	}
	return &Session{c: c, ID: resp.SessionID, Reused: resp.Reused}, nil
}

// Prefill generates KV for every document token not covered by the
// reused prefix.
func (s *Session) Prefill(ctx context.Context) (serve.PrefillResponse, error) {
	return fromRemote(s.c.r.Prefill(ctx, s.ID))
}

// Step decodes one token in one round trip: tok is ingested across all
// layers, and queries (indexed [layer][query head], covering the full
// model geometry) are answered with attention outputs for every layer and
// head over the extended context. Server-side the step runs at once when
// the session has nothing queued, and otherwise queues behind the
// session's work; the output is bitwise-identical to a dedicated serial
// step.
func (s *Session) Step(ctx context.Context, tok Token, queries [][][]float32) (StepResponse, error) {
	return fromRemote(s.c.r.Step(ctx, s.ID, &serve.StepRequest{Token: tok, Queries: queries}))
}

// Store persists the session's full state as a reusable stored context.
func (s *Session) Store(ctx context.Context) (serve.StoreResponse, error) {
	return fromRemote(s.c.r.Store(ctx, s.ID))
}

// CloseSession closes the session server-side (the SDK name matches the
// Service operation).
func (s *Session) CloseSession(ctx context.Context) error {
	_, err := s.c.r.CloseSession(ctx, s.ID)
	return apiErr(err)
}
