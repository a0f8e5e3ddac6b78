package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Remote is the HTTP client of a Core mounted on Server, the mirror of
// agrpc.Remote: one method per Core operation, each taking a ctx, with
// the request and response types in and out. step and step_stream carry
// binary frames. Every error is a *Error: an error envelope keeps its
// kind; a status with no envelope (a proxy answered) is typed by
// UntypedStatusKind; a request that got no response (a refused dial, a
// reset connection) is unavailable; and a response that does not decode
// is internal. A
// request the frame layout cannot carry (a ragged query grid) is a bad
// request before anything is sent. Safe for concurrent use.
type Remote struct {
	base string
	hc   *http.Client
}

// NewRemote returns a client of the Core served at base
// ("http://host:port") through hc. A nil hc selects a client that keeps
// up to 64 idle connections per host, so concurrent decode loops reuse
// connections instead of re-dialing.
func NewRemote(base string, hc *http.Client) *Remote {
	if hc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 64
		hc = &http.Client{Transport: tr}
	}
	return &Remote{base: strings.TrimRight(base, "/"), hc: hc}
}

// Close is a no-op: the connections belong to the http.Client.
func (r *Remote) Close() error { return nil }

// sessionPath is the path of session id's action ("/step"), or of the
// session itself for "".
func sessionPath(id int64, action string) string {
	return "/v1/sessions/" + strconv.FormatInt(id, 10) + action
}

// send issues one request, its body a frame when frame is set and JSON
// otherwise, and returns the response with its body open. Failures are
// typed as the type comment says.
func (r *Remote) send(ctx context.Context, method, path string, in interface{}, frame bool) (*http.Response, error) {
	var body []byte
	var err error
	if frame {
		if body, err = MarshalFrame(in); err != nil {
			return nil, BadRequestf("encode frame: %v", err)
		}
	} else if in != nil {
		if body, err = json.Marshal(in); err != nil {
			return nil, BadRequestf("encode request: %v", err)
		}
	}
	req, err := http.NewRequestWithContext(ctx, method, r.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, Unavailablef("%v", err)
	}
	switch {
	case frame:
		req.Header.Set("Content-Type", FrameContentType)
		req.Header.Set("Accept", FrameContentType)
	case in != nil:
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return nil, Unavailablef("%v", err) // a *url.Error names the request
	}
	if resp.StatusCode/100 == 2 {
		return resp, nil
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	var env ErrorEnvelope
	if json.NewDecoder(resp.Body).Decode(&env) == nil && env.Error != "" {
		return nil, &Error{Kind: env.Kind, Message: env.Error}
	}
	return nil, errf(UntypedStatusKind(resp.StatusCode), "%s: http status %d", r.base, resp.StatusCode)
}

// call runs one call and decodes its response, a frame or JSON as its
// Content-Type says.
func call[T any](ctx context.Context, r *Remote, method, path string, in interface{}, frame bool) (*T, error) {
	resp, err := r.send(ctx, method, path, in, frame)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, Unavailablef("%s: %v", r.base, err)
	}
	out := new(T)
	if isFrameMedia(resp.Header.Get("Content-Type")) {
		err = UnmarshalFrame(data, out)
	} else {
		err = json.Unmarshal(data, out)
	}
	if err != nil {
		return nil, Internalf("%s: bad %s response: %v", r.base, path, err)
	}
	return out, nil
}

// CreateSession opens a session on the remote Core.
func (r *Remote) CreateSession(ctx context.Context, req *CreateSessionRequest) (*CreateSessionResponse, error) {
	return call[CreateSessionResponse](ctx, r, http.MethodPost, "/v1/sessions", req, false)
}

// Prefill generates the session's KV on the remote Core.
func (r *Remote) Prefill(ctx context.Context, id int64) (*PrefillResponse, error) {
	return call[PrefillResponse](ctx, r, http.MethodPost, sessionPath(id, "/prefill"), nil, false)
}

// Step runs one decode step.
func (r *Remote) Step(ctx context.Context, id int64, req *StepRequest) (*StepResponse, error) {
	return call[StepResponse](ctx, r, http.MethodPost, sessionPath(id, "/step"), req, true)
}

// Store persists the session as a reusable context on the remote Core.
func (r *Remote) Store(ctx context.Context, id int64) (*StoreResponse, error) {
	return call[StoreResponse](ctx, r, http.MethodPost, sessionPath(id, "/store"), nil, false)
}

// CloseSession closes the session on the remote Core.
func (r *Remote) CloseSession(ctx context.Context, id int64) (*CloseResponse, error) {
	return call[CloseResponse](ctx, r, http.MethodDelete, sessionPath(id, ""), nil, false)
}

// Healthz probes the remote Core's liveness.
func (r *Remote) Healthz(ctx context.Context) (*HealthzResponse, error) {
	return call[HealthzResponse](ctx, r, http.MethodGet, "/v1/healthz", nil, false)
}

// Stats fetches the remote Core's statistics document.
func (r *Remote) Stats(ctx context.Context) (*StatsResponse, error) {
	return call[StatsResponse](ctx, r, http.MethodGet, "/v1/stats", nil, false)
}

// StepStream submits a batch of steps and returns a pull stream over
// their responses, read off the one HTTP response as the server flushes
// each frame. A request the server refused before streaming fails here.
// A read error on the body is unavailable. The stream must be closed.
func (r *Remote) StepStream(ctx context.Context, id int64, req *StepsRequest) (*Stream, error) {
	resp, err := r.send(ctx, http.MethodPost, sessionPath(id, "/step_stream"), req, true)
	if err != nil {
		return nil, err
	}
	sr := NewStreamReader(resp.Body)
	next := func(step *StepResponse) error {
		err := sr.Next(step)
		if _, typed := err.(*Error); typed || err == nil || err == io.EOF {
			return err
		}
		return Unavailablef("%s: %v", r.base, err)
	}
	return NewStream(next, func() error {
		io.Copy(io.Discard, resp.Body)
		return resp.Body.Close()
	}), nil
}
