// Package serve exposes a DB as an attention service — the deployment
// shape of §1's vision: inference engines connect to AlayaDB the way web
// applications connect to a relational database, shipping generated tokens
// in and getting finished attention outputs back. The interface carries
// only queries and attention results (never KV cache contents), which is
// exactly the paper's "interface simplification" benefit of the
// decoupling.
//
// The package is layered: Service (service.go) is the transport-agnostic
// core — typed requests and responses, a typed error model (errors.go),
// callable in-process by tests and benches — and Server (this file) is the
// thin HTTP transport over it: routing, body limits, and two codecs.
// Remote (remote.go) is the HTTP client of a Core behind a Server, and the
// public Go SDK for the protocol, pkg/alayaclient, calls through it.
//
// # Endpoints
//
//	method+path                           operation
//	POST   /v1/sessions                   create a session (body: document)
//	POST   /v1/sessions/{id}/prefill      generate KV for unreused tokens
//	POST   /v1/sessions/{id}/step         ingest a token + attention for all layers×heads
//	POST   /v1/sessions/{id}/step_stream  batch of N steps, one streamed frame per step
//	POST   /v1/sessions/{id}/store        persist as a reusable context
//	DELETE /v1/sessions/{id}              close the session
//	GET    /v1/stats                      DB + endpoint statistics
//	GET    /v1/healthz                    liveness probe
//
// An engine decodes one token per round trip through step, or N per round
// trip through step_stream; a step with attend_only set computes the
// attention without ingesting its token. step_stream delivers each
// StepResponse on the wire — its own binary frame, flushed — the moment
// its step completes, so the engine overlaps reading step N with the
// service decoding step N+1.
//
// # Decode scheduling
//
// Every step, single or streamed, runs on the goroutine that submitted
// it, under its session's request mutex, after admission by the
// Scheduler (scheduler.go). A step on a busy session waits for it. A
// step_stream batch holds its session for the whole batch and computes
// each step under the scheduler-wide stream lane, so one streamed step
// computes at a time; its frames are written outside the lane. Admission
// is bounded (-sched-queue) on the steps admitted but not yet started;
// overflow is rejected with the typed overloaded error (HTTP 429).
// Per-session order stays FIFO and outputs stay bitwise-identical to
// serial steps.
//
// # Codecs
//
// Every endpoint speaks JSON. The tensor-heavy ones — step and
// step_stream — also speak the binary frame codec
// `application/x-alaya-frame` (frame.go documents the wire layout):
// request bodies are selected by Content-Type, response bodies by Accept,
// and JSON remains the default for both. Binary and JSON carry identical
// values — floats cross the wire as IEEE-754 bits in the frame codec and
// as round-trip-exact decimal in JSON — so a client may mix codecs freely.
//
// Errors are always a JSON envelope {"error": message, "kind": kind}; the
// kind-to-status mapping lives in HTTPStatus.
//
// # Locking discipline
//
// The server is built for many sessions in flight at once; there is no
// global request lock. Three levels exist:
//
//  1. The Scheduler's mutex guards the session table (one map, one ID
//     counter) and admission. It is held only for an insert, a lookup, a
//     delete or one step's admission, and under it a session's lock is
//     only tried, never waited on.
//  2. Each session carries a request mutex, taken by prefill, every
//     step, store and close, because each grows, reads or consumes the
//     session's KV tail. A request on a busy session waits for it after
//     the table mutex is released. Requests on *different* sessions
//     therefore share only the table mutex's short critical sections and
//     the worker pool — except streamed steps:
//  3. The Scheduler's stream lane is taken under a session's mutex, and
//     only around one streamed step's compute, never across its sink.
package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/core"
)

// DefaultMaxBodyBytes is the request-body limit when no option overrides
// it: generous for step_stream batches at production model geometry, small
// enough that a misbehaving client cannot buffer the server into the
// ground.
const DefaultMaxBodyBytes int64 = 64 << 20

// Server is the HTTP transport over a Core — the local *Service on a
// single-node daemon, the cluster shard router on a routing one. Create
// with NewServer (local) or NewServerFor (any Core) and mount via
// Handler(). Safe for concurrent use; see the package comment for the
// locking discipline.
type Server struct {
	core         Core
	svc          *Service // == core on a single-node server; nil behind a router
	maxBody      int64
	encodeErrors atomic.Int64
}

// NewServer returns an HTTP server over db, with the service core's
// decode scheduler running.
func NewServer(db *core.DB, opts ...Option) *Server {
	svc := NewService(db, opts...)
	srv := NewServerFor(svc, opts...)
	srv.svc = svc
	return srv
}

// NewServerFor returns an HTTP server over any Core implementation — the
// mount point the cluster router shares with the local Service, so both
// backends front the identical wire.
func NewServerFor(c Core, opts ...Option) *Server {
	o := options{maxBody: DefaultMaxBodyBytes}
	for _, fn := range opts {
		fn(&o)
	}
	return &Server{core: c, maxBody: o.maxBody}
}

// Service returns the transport-agnostic local service core, for
// in-process callers that share a Server with HTTP traffic. Nil when the
// server fronts a non-local Core (a cluster router).
func (s *Server) Service() *Service { return s.svc }

// Core returns whatever backend the server fronts.
func (s *Server) Core() Core { return s.core }

// Close closes every open session.
func (s *Server) Close() error { return s.core.Close() }

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sessions", s.handleSessions)
	mux.HandleFunc("/v1/sessions/", s.handleSession)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	return mux
}

// --- codecs ---

// isFrameMedia reports whether a Content-Type value names the binary
// frame codec (parameters ignored). Shared with Remote so both sides
// negotiate the wire identically.
func isFrameMedia(contentType string) bool {
	if i := strings.IndexByte(contentType, ';'); i >= 0 {
		contentType = contentType[:i]
	}
	return strings.TrimSpace(strings.ToLower(contentType)) == FrameContentType
}

// wantsFrame reports whether the client asked for a binary response body.
func wantsFrame(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), FrameContentType)
}

// decodeBody reads the request body into v, honouring the server body
// limit and — when frameOK — the binary codec. A nil return means v is
// populated.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v interface{}, frameOK bool) *Error {
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	if isFrameMedia(r.Header.Get("Content-Type")) {
		if !frameOK {
			return errf(KindUnsupportedMedia, "%s bodies are only accepted on tensor endpoints", FrameContentType)
		}
		data, err := io.ReadAll(body)
		if err != nil {
			return decodeErr(err)
		}
		if err := UnmarshalFrame(data, v); err != nil {
			return BadRequestf("bad frame: %v", err)
		}
		return nil
	}
	if err := json.NewDecoder(body).Decode(v); err != nil {
		return decodeErr(err)
	}
	return nil
}

// decodeErr classifies a body-read failure: over-limit bodies are
// KindTooLarge, everything else is the client's malformed input.
func decodeErr(err error) *Error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return errf(KindTooLarge, "request body over %d byte limit", tooBig.Limit)
	}
	return BadRequestf("bad request body: %v", err)
}

// releaser is implemented by responses whose tensors alias pooled buffers.
type releaser interface{ Release() }

// writeResult encodes a successful response: binary when the client asked
// for it and the type has a frame encoding, JSON otherwise. Pooled
// response buffers are released after the bytes are on the wire.
func (s *Server) writeResult(w http.ResponseWriter, r *http.Request, v interface{}) {
	if rel, ok := v.(releaser); ok {
		defer rel.Release()
	}
	if wantsFrame(r) {
		buf := getFrameBuf()
		out, err := appendFrame(buf, v)
		if err == nil {
			w.Header().Set("Content-Type", FrameContentType)
			w.Header().Set("Content-Length", strconv.Itoa(len(out)))
			if _, werr := w.Write(out); werr != nil {
				s.encodeErrors.Add(1)
			}
			putFrameBuf(out)
			return
		}
		// No frame encoding for this type: fall through to JSON.
		putFrameBuf(buf)
	}
	s.writeJSON(w, v)
}

// writeJSON writes v as a JSON body, counting encode/write failures (the
// status line is already committed, so they cannot change the response).
func (s *Server) writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.encodeErrors.Add(1)
	}
}

// writeError sends the typed error envelope with the kind's status.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	env := Envelope(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(HTTPStatus(env.Kind))
	if eerr := json.NewEncoder(w).Encode(env); eerr != nil {
		s.encodeErrors.Add(1)
	}
}

// --- handlers ---

// knownActions is the session action vocabulary; anything else is 404.
var knownActions = map[string]bool{
	"prefill": true, "step": true, "step_stream": true, "store": true,
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, errf(KindMethodNotAllowed, "POST required"))
		return
	}
	var req CreateSessionRequest
	if derr := s.decodeBody(w, r, &req, false); derr != nil {
		s.writeError(w, derr)
		return
	}
	resp, err := s.core.CreateSession(&req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, resp)
}

// handleSession routes /v1/sessions/{id} and /v1/sessions/{id}/{action}.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/sessions/")
	parts := strings.SplitN(rest, "/", 2)
	id, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		s.writeError(w, BadRequestf("bad session id %q", parts[0]))
		return
	}
	action := ""
	if len(parts) == 2 {
		action = parts[1]
	}

	if action == "" {
		if r.Method != http.MethodDelete {
			s.writeError(w, errf(KindMethodNotAllowed, "DELETE required to close a session"))
			return
		}
		resp, serr := s.core.CloseSession(id)
		if serr != nil {
			s.writeError(w, serr)
			return
		}
		s.writeJSON(w, resp)
		return
	}

	if !knownActions[action] {
		s.writeError(w, NotFoundf("unknown action %q", action))
		return
	}
	if r.Method != http.MethodPost {
		s.writeError(w, errf(KindMethodNotAllowed, "POST required for %s", action))
		return
	}

	var (
		resp interface{}
		serr error
	)
	switch action {
	case "prefill":
		resp, serr = s.core.Prefill(id)
	case "step":
		var req StepRequest
		if derr := s.decodeBody(w, r, &req, true); derr != nil {
			s.writeError(w, derr)
			return
		}
		resp, serr = s.core.Step(id, &req)
	case "step_stream":
		var req StepsRequest
		if derr := s.decodeBody(w, r, &req, true); derr != nil {
			s.writeError(w, derr)
			return
		}
		s.handleStepStream(w, r, id, &req)
		return
	case "store":
		resp, serr = s.core.Store(id)
	}
	if serr != nil {
		s.writeError(w, serr)
		return
	}
	s.writeResult(w, r, resp)
}

// handleStepStream streams one frame (or NDJSON line) per finished step
// over a chunked response, flushing after each so the engine reads step N
// while the scheduler decodes step N+1. Errors before the first streamed
// element are ordinary typed-envelope responses with the kind's status;
// once streaming has begun the status line is committed, so errors travel
// in the stream-end terminator instead.
func (s *Server) handleStepStream(w http.ResponseWriter, r *http.Request, id int64, req *StepsRequest) {
	frame := wantsFrame(r)
	flusher, _ := w.(http.Flusher)
	started := false
	items := 0
	var enc *json.Encoder
	start := func() {
		if frame {
			w.Header().Set("Content-Type", FrameContentType)
		} else {
			w.Header().Set("Content-Type", NDJSONContentType)
		}
		w.WriteHeader(http.StatusOK)
		started = true
	}
	sink := func(resp *StepResponse) error {
		if !started {
			start()
		}
		if frame {
			buf := getFrameBuf()
			out, err := AppendStreamItemFrame(buf, resp)
			if err != nil {
				putFrameBuf(buf)
				return Internalf("encode stream item: %v", err)
			}
			_, werr := w.Write(out)
			putFrameBuf(out)
			if werr != nil {
				s.encodeErrors.Add(1)
				return werr
			}
		} else {
			if enc == nil {
				enc = json.NewEncoder(w)
			}
			if err := enc.Encode(StreamItemEnvelope{Step: resp}); err != nil {
				s.encodeErrors.Add(1)
				return err
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		items++
		return nil
	}

	err := s.core.StepStream(r.Context(), id, req, sink)
	if err != nil && !started {
		s.writeError(w, err)
		return
	}
	if !started {
		start() // empty batch: a clean zero-item stream
	}
	var env ErrorEnvelope
	if err != nil {
		env = Envelope(err)
	}
	if frame {
		buf := getFrameBuf()
		out := AppendStreamEndFrame(buf, items, env)
		if _, werr := w.Write(out); werr != nil {
			s.encodeErrors.Add(1)
		}
		putFrameBuf(out)
	} else {
		if enc == nil {
			enc = json.NewEncoder(w)
		}
		end := StreamEndEnvelope{StreamEnd: true, Items: items, Error: env.Error, Kind: env.Kind}
		if jerr := enc.Encode(end); jerr != nil {
			s.encodeErrors.Add(1)
		}
	}
	if flusher != nil {
		flusher.Flush()
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, errf(KindMethodNotAllowed, "GET required"))
		return
	}
	resp, err := s.core.Stats()
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp.EncodeErrors = s.encodeErrors.Load()
	s.writeJSON(w, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, errf(KindMethodNotAllowed, "GET required"))
		return
	}
	s.writeJSON(w, s.core.Healthz())
}
