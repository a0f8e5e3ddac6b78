package alayaclient

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"

	"repro/internal/serve"
	agrpc "repro/internal/serve/grpc"
)

// grpcClient mounts a gRPC listener over the same Service the env's HTTP
// test server fronts, and returns a Client dialed to it.
func (e *testEnv) grpcClient(t *testing.T, opts ...Option) *Client {
	t.Helper()
	gsrv := agrpc.NewServer(e.srv.Service())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := agrpc.NewHTTPServer(ln.Addr().String(), gsrv.Handler())
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	c, err := NewClient(append([]Option{WithGRPCAddr(ln.Addr().String())}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestGRPCSDKMatchesHTTP drives the full SDK surface over both
// transports against one service and requires bitwise-identical tensor
// outputs — the SDK-level face of the transport-conformance guarantee.
func TestGRPCSDKMatchesHTTP(t *testing.T) {
	e := newTestEnv(t, 300)
	hc := e.cl(t)
	gc := e.grpcClient(t)
	ctx := context.Background()

	hsess := e.session(t, hc)
	gsess, err := gc.CreateSession(ctx, e.inst.Doc)
	if err != nil {
		t.Fatal(err)
	}
	if gsess.Reused != e.inst.Doc.Len() {
		t.Fatalf("grpc session reused %d of %d tokens", gsess.Reused, e.inst.Doc.Len())
	}
	for name, sess := range map[string]*Session{"http": hsess, "grpc": gsess} {
		pf, err := sess.Prefill(ctx)
		if err != nil {
			t.Fatalf("%s prefill: %v", name, err)
		}
		if pf.ContextLen != e.inst.Doc.Len() {
			t.Fatalf("%s prefill context len %d", name, pf.ContextLen)
		}
	}

	// Attention without ingesting: a one-step attend-only stream.
	attend := []StepRequest{{Queries: e.queries(0), AttendOnly: true}}
	var attended [2]StepResponse
	for i, sess := range []*Session{hsess, gsess} {
		stream, err := sess.StepStream(ctx, attend)
		if err != nil {
			t.Fatal(err)
		}
		if attended[i], err = stream.Recv(); err != nil {
			t.Fatal(err)
		}
		stream.Close()
		if attended[i].ContextLen != e.inst.Doc.Len() {
			t.Fatalf("attend-only step ingested: context len %d", attended[i].ContextLen)
		}
	}
	for l := range attended[0].Layers {
		for h := range attended[0].Layers[l] {
			sameOutputs(t, "attend-only step", attended[0].Layers[l][h], attended[1].Layers[l][h])
		}
	}

	tok := e.inst.Doc.Tokens[0]
	for step := 0; step < 3; step++ {
		qs := e.queries(step)
		hr, herr := hsess.Step(ctx, tok, qs)
		gr, gerr := gsess.Step(ctx, tok, qs)
		if herr != nil || gerr != nil {
			t.Fatalf("step %d: http err %v, grpc err %v", step, herr, gerr)
		}
		if hr.ContextLen != gr.ContextLen || len(hr.Layers) != len(gr.Layers) {
			t.Fatalf("step %d shape: %d/%d layers, ctx %d/%d", step,
				len(hr.Layers), len(gr.Layers), hr.ContextLen, gr.ContextLen)
		}
		for l := range hr.Layers {
			for h := range hr.Layers[l] {
				sameOutputs(t, "step", hr.Layers[l][h], gr.Layers[l][h])
			}
		}
	}

	hz, err := gc.Healthz(ctx)
	if err != nil || hz.Status != "ok" {
		t.Fatalf("grpc healthz: %+v, %v", hz, err)
	}
	hst, herr := hc.Stats(ctx)
	gst, gerr := gc.Stats(ctx)
	if herr != nil || gerr != nil {
		t.Fatalf("stats: http %v, grpc %v", herr, gerr)
	}
	if gst.OpenSessions != hst.OpenSessions {
		t.Fatalf("stats open sessions: http %d, grpc %d", hst.OpenSessions, gst.OpenSessions)
	}

	st, err := gsess.Store(ctx)
	if err != nil || st.StoredTokens == 0 {
		t.Fatalf("grpc store: %+v, %v", st, err)
	}
	if err := gsess.CloseSession(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := gsess.Prefill(ctx); !IsNotFound(err) {
		t.Fatalf("prefill after close: want not-found APIError, got %v", err)
	}
}

// TestGRPCSDKStepStream checks the streaming iterator over gRPC against
// the same batch issued as unary Step calls over HTTP.
func TestGRPCSDKStepStream(t *testing.T) {
	e := newTestEnv(t, 300)
	hc := e.cl(t)
	gc := e.grpcClient(t)
	ctx := context.Background()

	hsess := e.session(t, hc)
	gsess, err := gc.CreateSession(ctx, e.inst.Doc)
	if err != nil {
		t.Fatal(err)
	}
	tok := e.inst.Doc.Tokens[0]
	var batch []StepRequest
	for step := 0; step < 3; step++ {
		batch = append(batch, StepRequest{Token: tok, Queries: e.queries(step)})
	}
	want := unarySteps(t, ctx, hsess, batch)

	stream, err := gsess.StepStream(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	for i := range want {
		got, err := stream.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got.ContextLen != want[i].ContextLen {
			t.Fatalf("recv %d context len %d, want %d", i, got.ContextLen, want[i].ContextLen)
		}
		for l := range want[i].Layers {
			for h := range want[i].Layers[l] {
				sameOutputs(t, "stream step", got.Layers[l][h], want[i].Layers[l][h])
			}
		}
	}
	if _, err := stream.Recv(); err != io.EOF {
		t.Fatalf("after last item: want io.EOF, got %v", err)
	}
	if stream.Items() != len(batch) {
		t.Fatalf("items %d, want %d", stream.Items(), len(batch))
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGRPCSDKErrors checks that the gRPC transport surfaces the same
// typed *APIError model as HTTP: kinds survive the wire, the predicate
// helpers work, and ragged geometry fails with the same typed
// bad_request rejection, raised on the client before anything is sent.
func TestGRPCSDKErrors(t *testing.T) {
	e := newTestEnv(t, 300)
	gc := e.grpcClient(t)
	ctx := context.Background()

	bogus := &Session{c: gc, ID: 999999}
	_, err := bogus.Prefill(ctx)
	if !IsNotFound(err) {
		t.Fatalf("bogus session: want not-found, got %v", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Kind != serve.KindNotFound {
		t.Fatalf("bogus session error kind: %v", err)
	}

	sess, err := gc.CreateSession(ctx, e.inst.Doc)
	if err != nil {
		t.Fatal(err)
	}
	ragged := e.queries(0)
	ragged[0] = ragged[0][:1] // head count mismatch: no frame encoding
	if _, err := sess.Step(ctx, e.inst.Doc.Tokens[0], ragged); !errors.As(err, &ae) || ae.Kind != serve.KindBadRequest {
		t.Fatalf("ragged step: want bad-request APIError, got %v", err)
	}
	if _, err := sess.StepStream(ctx, []StepRequest{{Token: e.inst.Doc.Tokens[0], Queries: ragged}}); !errors.As(err, &ae) || ae.Kind != serve.KindBadRequest {
		t.Fatalf("ragged stream: want bad-request APIError, got %v", err)
	}

	// Drained service: the scheduler answers unavailable.
	e.srv.Close()
	if _, err := sess.Step(ctx, e.inst.Doc.Tokens[0], e.queries(0)); !IsUnavailable(err) {
		t.Fatalf("step after close: want unavailable, got %v", err)
	}
}

// TestGRPCOptionExclusivity pins the constructor contract.
func TestGRPCOptionExclusivity(t *testing.T) {
	if _, err := NewClient(); err == nil {
		t.Fatal("NewClient with no transport should fail")
	}
	if _, err := NewClient(WithBaseURL("http://x"), WithGRPCAddr("y:1")); err == nil {
		t.Fatal("NewClient with both transports should fail")
	}
}
