package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// decodeEnvelope reads a failing response's typed error envelope.
func decodeEnvelope(t *testing.T, resp *http.Response) ErrorEnvelope {
	t.Helper()
	defer resp.Body.Close()
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error body is not the typed envelope: %v", err)
	}
	if env.Error == "" || env.Kind == "" {
		t.Fatalf("envelope incomplete: %+v", env)
	}
	return env
}

// TestServeErrorEnvelopeEverywhere: every failure shape carries the typed
// envelope with the right kind and status.
func TestServeErrorEnvelopeEverywhere(t *testing.T) {
	_, ts, m := testServer(t)
	var created CreateSessionResponse
	postJSON(t, ts.URL+"/v1/sessions", DocumentWire{Seed: 1}, &created)
	base := fmt.Sprintf("%s/v1/sessions/%d", ts.URL, created.SessionID)

	type errCase struct {
		name   string
		do     func() (*http.Response, error)
		status int
		kind   Kind
	}
	cases := []errCase{
		{"malformed json", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader("{nope"))
		}, 400, KindBadRequest},
		{"wrong method on sessions", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/sessions")
		}, 405, KindMethodNotAllowed},
		{"wrong method on action", func() (*http.Response, error) {
			return http.Get(base + "/prefill")
		}, 405, KindMethodNotAllowed},
		{"wrong method on session root", func() (*http.Response, error) {
			return http.Post(base, "application/json", strings.NewReader("{}"))
		}, 405, KindMethodNotAllowed},
		{"wrong method on stats", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/stats", "application/json", strings.NewReader("{}"))
		}, 405, KindMethodNotAllowed},
		{"wrong method on healthz", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/healthz", "application/json", strings.NewReader("{}"))
		}, 405, KindMethodNotAllowed},
		{"unknown action", func() (*http.Response, error) {
			return http.Post(base+"/frobnicate", "application/json", strings.NewReader("{}"))
		}, 404, KindNotFound},
		{"bad session id", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/sessions/abc/prefill", "application/json", strings.NewReader("{}"))
		}, 400, KindBadRequest},
		{"missing session", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/sessions/99999/prefill", "application/json", strings.NewReader("{}"))
		}, 404, KindNotFound},
		{"wrong layer count", func() (*http.Response, error) {
			raw, _ := json.Marshal(StepRequest{Queries: [][][]float32{{make([]float32, m.Config().HeadDim)}}})
			return http.Post(base+"/step", "application/json", bytes.NewReader(raw))
		}, 400, KindBadRequest},
		{"frame body on non-tensor endpoint", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/sessions", FrameContentType, bytes.NewReader([]byte("ALYF")))
		}, 415, KindUnsupportedMedia},
		{"garbage frame on tensor endpoint", func() (*http.Response, error) {
			return http.Post(base+"/step", FrameContentType, bytes.NewReader([]byte("not a frame")))
		}, 400, KindBadRequest},
		{"removed-kind frame on tensor endpoint", func() (*http.Response, error) {
			return http.Post(base+"/step", FrameContentType, bytes.NewReader(removedKindFrame(t)))
		}, 400, KindBadRequest},
	}
	// The retired v1 actions and the buffered batch are unknown actions.
	for _, action := range []string{"update", "attention", "attention_all", "steps"} {
		action := action
		cases = append(cases, errCase{"removed action " + action, func() (*http.Response, error) {
			return http.Post(base+"/"+action, "application/json", strings.NewReader("{}"))
		}, 404, KindNotFound})
	}
	for _, tc := range cases {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.StatusCode != tc.status {
			resp.Body.Close()
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
			continue
		}
		if env := decodeEnvelope(t, resp); env.Kind != tc.kind {
			t.Errorf("%s: kind %q, want %q", tc.name, env.Kind, tc.kind)
		}
	}
}

func TestServeMaxBodyLimit(t *testing.T) {
	_, ts, _ := testServer(t)
	// The shared test server uses the default limit; build a tiny-limit
	// server on the same DB semantics instead.
	srvSmall, tsSmall, _ := testServerOpts(t, WithMaxBodyBytes(128))
	_ = srvSmall

	var created CreateSessionResponse
	if code := postJSON(t, tsSmall.URL+"/v1/sessions", DocumentWire{Seed: 1}, &created); code != http.StatusOK {
		t.Fatalf("create under limit: status %d", code)
	}
	big := DocumentWire{Seed: 1, Tokens: make([]model.Token, 4096)}
	raw, _ := json.Marshal(big)
	resp, err := http.Post(tsSmall.URL+"/v1/sessions", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		resp.Body.Close()
		t.Fatalf("oversized body: status %d", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Kind != KindTooLarge {
		t.Fatalf("oversized body kind = %q", env.Kind)
	}

	// The default-limit server takes the same body happily.
	if code := postJSON(t, ts.URL+"/v1/sessions", big, nil); code != http.StatusOK {
		t.Fatalf("default limit rejected %d-byte body: status %d", len(raw), code)
	}
}

func TestServeHealthz(t *testing.T) {
	_, ts, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var hz HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" {
		t.Fatalf("healthz = %+v", hz)
	}
}

// TestServeStepHTTPBothCodecs runs the same decode step through the JSON
// and binary wires on twin sessions and requires bitwise-identical
// outputs, plus frame content negotiation on the response.
func TestServeStepHTTPBothCodecs(t *testing.T) {
	_, ts, m := testServer(t)
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 21, 400, 64, 32)
	doc := DocumentWire{Seed: inst.Doc.Seed, Tokens: inst.Doc.Tokens}

	mkSession := func() string {
		var created CreateSessionResponse
		if code := postJSON(t, ts.URL+"/v1/sessions", doc, &created); code != http.StatusOK {
			t.Fatalf("create: status %d", code)
		}
		base := fmt.Sprintf("%s/v1/sessions/%d", ts.URL, created.SessionID)
		if code := postJSON(t, base+"/prefill", struct{}{}, nil); code != http.StatusOK {
			t.Fatalf("prefill: status %d", code)
		}
		return base
	}

	req := StepRequest{
		Token:   model.Token{Topic: 1, Payload: 2},
		Queries: stepQueriesFor(m, inst.Doc, inst.Question, 0),
	}

	// JSON wire.
	var jsonResp StepResponse
	if code := postJSON(t, mkSession()+"/step", req, &jsonResp); code != http.StatusOK {
		t.Fatalf("json step: status %d", code)
	}

	// Binary wire.
	frame, err := MarshalFrame(&req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, _ := http.NewRequest(http.MethodPost, mkSession()+"/step", bytes.NewReader(frame))
	hreq.Header.Set("Content-Type", FrameContentType)
	hreq.Header.Set("Accept", FrameContentType)
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("binary step: status %d", hresp.StatusCode)
	}
	if ct := hresp.Header.Get("Content-Type"); ct != FrameContentType {
		t.Fatalf("binary step content-type = %q", ct)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(hresp.Body); err != nil {
		t.Fatal(err)
	}
	var binResp StepResponse
	if err := UnmarshalFrame(body.Bytes(), &binResp); err != nil {
		t.Fatal(err)
	}

	if jsonResp.ContextLen != binResp.ContextLen {
		t.Fatalf("context len %d vs %d", jsonResp.ContextLen, binResp.ContextLen)
	}
	for l := range jsonResp.Layers {
		for h := range jsonResp.Layers[l] {
			a, b := jsonResp.Layers[l][h], binResp.Layers[l][h]
			if a.Plan != b.Plan || a.Retrieved != b.Retrieved || a.Attended != b.Attended {
				t.Fatalf("L%dH%d metadata: json %+v, binary %+v", l, h, a, b)
			}
			for i := range a.Output {
				if a.Output[i] != b.Output[i] {
					t.Fatalf("L%dH%d output[%d]: json %x, binary %x", l, h, i, a.Output[i], b.Output[i])
				}
			}
		}
	}

	// A frame Accept on a non-frameable endpoint degrades to JSON.
	sreq, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/stats", nil)
	sreq.Header.Set("Accept", FrameContentType)
	sresp, err := http.DefaultClient.Do(sreq)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("stats content-type with frame accept = %q", ct)
	}
}
