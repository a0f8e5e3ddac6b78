package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/attention"
	"repro/internal/core"
	"repro/internal/index/graph"
	"repro/internal/model"
	"repro/internal/workload"
)

func testServer(t *testing.T) (*Server, *httptest.Server, *model.Model) {
	t.Helper()
	return testServerOpts(t)
}

func testServerOpts(t *testing.T, opts ...Option) (*Server, *httptest.Server, *model.Model) {
	t.Helper()
	cfg := model.Default()
	cfg.Layers = 2
	cfg.QHeads = 4
	cfg.KVHeads = 2
	cfg.Vocab = 32
	m := model.New(cfg)
	db, err := core.New(core.Config{
		Model:         m,
		Window:        attention.Window{Sinks: 4, Recent: 16},
		LongThreshold: 256,
		Graph:         graph.Config{Degree: 12, QueryKNN: 8, EfConstruction: 48},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db, opts...)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		db.Close()
	})
	return srv, ts, m
}

func postJSON(t *testing.T, url string, body, out interface{}) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestServeEndToEnd drives the full inference-engine protocol over HTTP:
// create a session, prefill, run attention queries without ingesting,
// step a generated token, store, and verify reuse on a second session.
func TestServeEndToEnd(t *testing.T) {
	_, ts, m := testServer(t)
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 9, 600, 64, 32)
	doc := DocumentWire{Seed: inst.Doc.Seed, Tokens: inst.Doc.Tokens}

	var created CreateSessionResponse
	if code := postJSON(t, ts.URL+"/v1/sessions", doc, &created); code != http.StatusOK {
		t.Fatalf("create: status %d", code)
	}
	if created.Reused != 0 {
		t.Fatalf("cold create reused %d", created.Reused)
	}
	base := fmt.Sprintf("%s/v1/sessions/%d", ts.URL, created.SessionID)

	var pf map[string]int
	if code := postJSON(t, base+"/prefill", struct{}{}, &pf); code != http.StatusOK {
		t.Fatalf("prefill: status %d", code)
	}
	if pf["context_len"] != 600 {
		t.Fatalf("context_len = %d", pf["context_len"])
	}

	// Attention without ingesting; layer 1 head 0 is a retrieval head.
	qs := stepQueriesFor(m, inst.Doc, inst.Question, 0)
	var att StepResponse
	if code := postJSON(t, base+"/step", StepRequest{Queries: qs, AttendOnly: true}, &att); code != http.StatusOK {
		t.Fatalf("attend-only step: status %d", code)
	}
	if att.ContextLen != 600 {
		t.Fatalf("context_len after attend-only step = %d", att.ContextLen)
	}
	if head := att.Layers[1][0]; len(head.Output) != m.Config().HeadDim || head.Plan == "" || head.Attended == 0 {
		t.Fatalf("attention metadata missing: %+v", head)
	}

	// Generate a token, store, reuse.
	var step StepResponse
	if code := postJSON(t, base+"/step", StepRequest{Token: model.Token{Topic: 1, Payload: 2}, Queries: qs}, &step); code != http.StatusOK {
		t.Fatalf("step: status %d", code)
	}
	if step.ContextLen != 601 {
		t.Fatalf("context_len after step = %d", step.ContextLen)
	}
	var stored map[string]int
	if code := postJSON(t, base+"/store", struct{}{}, &stored); code != http.StatusOK {
		t.Fatalf("store: status %d", code)
	}
	if stored["stored_tokens"] != 601 {
		t.Fatalf("stored_tokens = %d", stored["stored_tokens"])
	}

	var again CreateSessionResponse
	postJSON(t, ts.URL+"/v1/sessions", doc, &again)
	if again.Reused != 600 {
		t.Fatalf("second session reused %d, want 600", again.Reused)
	}

	// Stats reflect the store.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	json.NewDecoder(resp.Body).Decode(&st)
	if st.Contexts != 1 || st.OpenSessions != 2 {
		t.Fatalf("stats = %+v", st)
	}

	// Close the first session.
	req, _ := http.NewRequest(http.MethodDelete, base, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}
}

func TestServeErrors(t *testing.T) {
	_, ts, m := testServer(t)

	// Bad JSON.
	resp, _ := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader([]byte("{nope")))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown session.
	mc := m.Config()
	qs := make([][][]float32, mc.Layers)
	for l := range qs {
		qs[l] = make([][]float32, mc.QHeads)
		for h := range qs[l] {
			qs[l][h] = make([]float32, mc.HeadDim)
		}
	}
	if code := postJSON(t, ts.URL+"/v1/sessions/999/step", StepRequest{Queries: qs}, nil); code != http.StatusNotFound {
		t.Errorf("unknown session: status %d", code)
	}

	// Create a real session for parameter validation.
	var created CreateSessionResponse
	postJSON(t, ts.URL+"/v1/sessions", DocumentWire{Seed: 1}, &created)
	base := fmt.Sprintf("%s/v1/sessions/%d", ts.URL, created.SessionID)

	if code := postJSON(t, base+"/step", StepRequest{Queries: qs[:1]}, nil); code != http.StatusBadRequest {
		t.Errorf("bad layer count: status %d", code)
	}
	short := [][][]float32{{make([]float32, 3)}}
	if code := postJSON(t, base+"/step", StepRequest{Queries: append(short, qs[1:]...)}, nil); code != http.StatusBadRequest {
		t.Errorf("bad query dim: status %d", code)
	}
	// Steps on an empty document grow its context from zero.
	postJSON(t, base+"/step", StepRequest{Token: model.Token{Topic: 1}, Queries: qs}, nil)
	var step StepResponse
	postJSON(t, base+"/step", StepRequest{Token: model.Token{Topic: 2}, Queries: qs}, &step)
	if step.ContextLen != 2 {
		t.Errorf("context after steps = %d", step.ContextLen)
	}
	// Bad id in path.
	if code := postJSON(t, ts.URL+"/v1/sessions/abc/prefill", struct{}{}, nil); code != http.StatusBadRequest {
		t.Errorf("bad id: status %d", code)
	}
	// Method checks.
	gresp, _ := http.Get(ts.URL + "/v1/sessions")
	if gresp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET sessions: status %d", gresp.StatusCode)
	}
	gresp.Body.Close()
	if code := postJSON(t, ts.URL+"/v1/stats", struct{}{}, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("POST stats: status %d", code)
	}
	if code := postJSON(t, base+"/frobnicate", struct{}{}, nil); code != http.StatusNotFound {
		t.Errorf("unknown action: status %d", code)
	}
}
