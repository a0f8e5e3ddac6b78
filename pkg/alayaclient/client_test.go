package alayaclient

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/attention"
	"repro/internal/core"
	"repro/internal/index/graph"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/workload"
)

// countingTransport counts round trips so tests can assert protocol cost.
type countingTransport struct {
	base http.RoundTripper
	n    atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.n.Add(1)
	return t.base.RoundTrip(r)
}

type testEnv struct {
	ts   *httptest.Server
	srv  *serve.Server
	m    *model.Model
	inst workload.Instance
}

// cl builds a client against the test server, failing the test on a
// construction error.
func (e *testEnv) cl(t *testing.T, opts ...Option) *Client {
	t.Helper()
	c, err := NewClient(append([]Option{WithBaseURL(e.ts.URL)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newTestEnv(t *testing.T, contextLen int) *testEnv {
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
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 17, contextLen, 64, 32)
	if _, err := db.ImportDoc(inst.Doc); err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(db)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		db.Close()
	})
	return &testEnv{ts: ts, srv: srv, m: m, inst: inst}
}

func (e *testEnv) queries(step int) [][][]float32 {
	mc := e.m.Config()
	qs := make([][][]float32, mc.Layers)
	for l := range qs {
		qs[l] = make([][]float32, mc.QHeads)
		for h := range qs[l] {
			qs[l][h] = e.m.QueryVector(e.inst.Doc, l, h, model.QuerySpec{
				FocusTopics: e.inst.Question, Step: step, ContextLen: e.inst.Doc.Len()})
		}
	}
	return qs
}

func (e *testEnv) session(t *testing.T, c *Client) *Session {
	t.Helper()
	sess, err := c.CreateSession(context.Background(), e.inst.Doc)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Reused != e.inst.Doc.Len() {
		t.Fatalf("session reused %d of %d tokens", sess.Reused, e.inst.Doc.Len())
	}
	return sess
}

func sameOutputs(t *testing.T, label string, a, b AttentionResponse) {
	t.Helper()
	if a.Plan != b.Plan || a.Retrieved != b.Retrieved || a.Attended != b.Attended {
		t.Fatalf("%s metadata: %+v vs %+v", label, a, b)
	}
	if len(a.Output) != len(b.Output) {
		t.Fatalf("%s output dims %d vs %d", label, len(a.Output), len(b.Output))
	}
	for i := range a.Output {
		if a.Output[i] != b.Output[i] {
			t.Fatalf("%s output[%d]: %x vs %x", label, i, a.Output[i], b.Output[i])
		}
	}
}

// TestStepOneRoundTrip is the protocol acceptance test: one decoded
// token costs exactly one round trip via Client.Step. (That the JSON and
// binary codecs return bitwise-identical outputs is pinned on the server,
// by serve's TestServeStepHTTPBothCodecs; that a step equals ingesting
// the token and then attending every layer is pinned in the engine, by
// core's TestStepMatchesV1Path.)
func TestStepOneRoundTrip(t *testing.T) {
	env := newTestEnv(t, 400)

	ctx := context.Background()
	ct := &countingTransport{base: http.DefaultTransport}
	sess := env.session(t, env.cl(t, WithHTTPClient(&http.Client{Transport: ct})))

	for step := 0; step < 3; step++ {
		before := ct.n.Load()
		resp, err := sess.Step(ctx, Token{Topic: 1, Payload: step + 1}, env.queries(step))
		if err != nil {
			t.Fatal(err)
		}
		if got := ct.n.Load() - before; got != 1 {
			t.Fatalf("step used %d round trips, want 1", got)
		}
		if resp.ContextLen != env.inst.Doc.Len()+step+1 {
			t.Fatalf("step %d context len %d", step, resp.ContextLen)
		}
	}
}

// TestErrorConformance sweeps endpoint × bad-input classes through the
// SDK: every failure surfaces as *APIError with the documented kind.
func TestErrorConformance(t *testing.T) {
	env := newTestEnv(t, 300)
	ctx := context.Background()
	c := env.cl(t)
	sess := env.session(t, c)
	ghost := &Session{c: c, ID: 999999}
	badQs := env.queries(0)
	badQs[0] = badQs[0][:1] // ragged head count on layer 0
	shortQs := env.queries(0)
	shortQs[1][0] = shortQs[1][0][:3] // ragged query dim on layer 1
	over := make([]StepRequest, serve.MaxSteps+1)
	for i := range over {
		over[i] = StepRequest{Queries: env.queries(0)}
	}

	cases := []struct {
		name string
		do   func() error
		kind serve.Kind
	}{
		{"prefill missing session", func() error { _, err := ghost.Prefill(ctx); return err }, serve.KindNotFound},
		{"step missing session", func() error { _, err := ghost.Step(ctx, Token{}, env.queries(0)); return err }, serve.KindNotFound},
		{"store missing session", func() error { _, err := ghost.Store(ctx); return err }, serve.KindNotFound},
		{"close missing session", func() error { return ghost.CloseSession(ctx) }, serve.KindNotFound},
		{"step ragged geometry", func() error { _, err := sess.Step(ctx, Token{}, badQs); return err }, serve.KindBadRequest},
		{"step ragged dim", func() error { _, err := sess.Step(ctx, Token{}, shortQs); return err }, serve.KindBadRequest},
		{"step missing layers", func() error { _, err := sess.Step(ctx, Token{}, env.queries(0)[:1]); return err }, serve.KindBadRequest},
		{"step_stream bad inner step", func() error {
			_, err := sess.StepStream(ctx, []StepRequest{{Token: Token{}, Queries: env.queries(0)[:1]}})
			return err
		}, serve.KindBadRequest},
		{"step_stream over MaxSteps", func() error { _, err := sess.StepStream(ctx, over); return err }, serve.KindBadRequest},
	}
	for _, tc := range cases {
		err := tc.do()
		ae, ok := err.(*APIError)
		if !ok {
			t.Errorf("%s: err = %v (%T), want *APIError", tc.name, err, err)
			continue
		}
		if ae.Kind != tc.kind {
			t.Errorf("%s: kind %q, want %q (%v)", tc.name, ae.Kind, tc.kind, ae)
		}
		if ae.Status != serve.HTTPStatus(tc.kind) {
			t.Errorf("%s: status %d, want %d", tc.name, ae.Status, serve.HTTPStatus(tc.kind))
		}
	}
	if !IsNotFound(&APIError{Kind: serve.KindNotFound}) || IsNotFound(fmt.Errorf("x")) {
		t.Error("IsNotFound misclassifies")
	}
	if !IsOverloaded(&APIError{Kind: serve.KindOverloaded}) || IsOverloaded(fmt.Errorf("x")) {
		t.Error("IsOverloaded misclassifies")
	}
}

// TestClientStatsHealthz exercises the observability surface through the
// SDK, including the per-endpoint counters the v2 API added.
func TestClientStatsHealthz(t *testing.T) {
	env := newTestEnv(t, 300)
	ctx := context.Background()
	c := env.cl(t)

	hz, err := c.Healthz(ctx)
	if err != nil || hz.Status != "ok" {
		t.Fatalf("healthz = %+v, %v", hz, err)
	}

	sess := env.session(t, c)
	if _, err := sess.Step(ctx, Token{Topic: 1, Payload: 1}, env.queries(0)); err != nil {
		t.Fatal(err)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Contexts != 1 || st.OpenSessions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	found := false
	for _, ep := range st.Endpoints {
		if ep.Endpoint == "step" && ep.Requests == 1 && ep.Errors == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("step endpoint counter missing: %+v", st.Endpoints)
	}
}

// TestConcurrentStepHammer drives concurrent Step traffic through the SDK
// — several sessions, plus goroutines contending on the same session —
// and is the race-detector gate for the v2 path end to end.
func TestConcurrentStepHammer(t *testing.T) {
	env := newTestEnv(t, 256)
	ctx := context.Background()
	c := env.cl(t)

	const sessions = 4
	const stepsPer = 6
	var wg sync.WaitGroup
	errs := make(chan error, sessions*2)

	for i := 0; i < sessions; i++ {
		sess := env.session(t, c)
		// Two goroutines share each session: the server must serialize
		// their mutating steps without tripping the race detector.
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(sess *Session, g int) {
				defer wg.Done()
				for n := 0; n < stepsPer; n++ {
					if _, err := sess.Step(ctx, Token{Topic: 1, Payload: n + 1}, env.queries(n)); err != nil {
						errs <- err
						return
					}
				}
			}(sess, g)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var stepReqs int64
	for _, ep := range st.Endpoints {
		if ep.Endpoint == "step" {
			stepReqs = ep.Requests
		}
	}
	if stepReqs != sessions*2*stepsPer {
		t.Fatalf("step requests = %d, want %d", stepReqs, sessions*2*stepsPer)
	}
}

// TestNewClientRequiresBaseURL: the functional-option constructor fails
// fast without an address instead of producing a client that errors on
// first use.
func TestNewClientRequiresBaseURL(t *testing.T) {
	if _, err := NewClient(); err == nil {
		t.Fatal("NewClient() without WithBaseURL succeeded")
	}
	if _, err := NewClient(WithHTTPClient(http.DefaultClient)); err == nil {
		t.Fatal("NewClient(WithHTTPClient(...)) without WithBaseURL succeeded")
	}
}
