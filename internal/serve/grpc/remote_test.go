package grpc

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"testing"

	"repro/internal/serve"
	"repro/internal/workload"
)

// TestRemoteMirrorsCore drives every Core operation through Remote and
// the same operation on the Service directly, on twin sessions over one
// document: responses must be identical (tensor ones frame for frame),
// and failures typed *serve.Error values of the service's kind.
func TestRemoteMirrorsCore(t *testing.T) {
	conn, m, svc := testConn(t)
	rc := &Remote{target: conn.base, conn: conn}
	ctx := context.Background()
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 5, 200, 64, 32)
	doc := &serve.CreateSessionRequest{Seed: inst.Doc.Seed, Tokens: inst.Doc.Tokens}

	created, err := rc.CreateSession(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := svc.CreateSession(doc)
	if err != nil {
		t.Fatal(err)
	}
	id := created.SessionID
	pf, err := rc.Prefill(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := svc.Prefill(twin.SessionID); *pf != *want {
		t.Fatalf("prefill %+v, want %+v", pf, want)
	}

	var steps []serve.StepRequest
	for i := 0; i < 3; i++ {
		var sr serve.StepRequest
		if err := serve.UnmarshalFrame(stepFrame(t, m, inst.Doc, inst.Question, i), &sr); err != nil {
			t.Fatal(err)
		}
		steps = append(steps, sr)
	}
	sameFrame := func(label string, got, want *serve.StepResponse) {
		t.Helper()
		g, gerr := serve.MarshalFrame(got)
		w, werr := serve.MarshalFrame(want)
		if gerr != nil || werr != nil || !bytes.Equal(g, w) {
			t.Fatalf("%s: remote response differs from the service's (%v, %v)", label, gerr, werr)
		}
	}
	got, err := rc.Step(ctx, id, &steps[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := svc.Step(twin.SessionID, &steps[0])
	if err != nil {
		t.Fatal(err)
	}
	sameFrame("step", got, want)

	st, err := rc.StepStream(ctx, id, &serve.StepsRequest{Steps: steps[1:]})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(steps); i++ {
		got, err := st.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		want, err := svc.Step(twin.SessionID, &steps[i])
		if err != nil {
			t.Fatal(err)
		}
		sameFrame("stream item", got, want)
	}
	for i := 0; i < 2; i++ {
		if _, err := st.Recv(); err != io.EOF {
			t.Fatalf("after the last item: %v, want io.EOF", err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	if hz, err := rc.Healthz(ctx); err != nil || hz.Status != "ok" || hz.OpenSessions != 2 {
		t.Fatalf("healthz %+v, %v", hz, err)
	}
	if stats, err := rc.Stats(ctx); err != nil || stats.OpenSessions != 2 {
		t.Fatalf("stats %+v, %v", stats, err)
	}
	if stored, err := rc.Store(ctx, id); err != nil || stored.StoredTokens != inst.Doc.Len()+len(steps) {
		t.Fatalf("store %+v, %v", stored, err)
	}
	if closed, err := rc.CloseSession(ctx, id); err != nil || closed.Status != "closed" {
		t.Fatalf("close %+v, %v", closed, err)
	}

	kindOf := func(err error) serve.Kind {
		se, ok := err.(*serve.Error)
		if !ok {
			t.Fatalf("error %v (%T) is not a *serve.Error", err, err)
		}
		return se.Kind
	}
	if _, err := rc.Prefill(ctx, id); kindOf(err) != serve.KindNotFound {
		t.Fatalf("prefill of a closed session: %v", err)
	}
	ragged := steps[0]
	ragged.Queries = [][][]float32{{{1, 2}, {3}}}
	if _, err := rc.Step(ctx, twin.SessionID, &ragged); kindOf(err) != serve.KindBadRequest {
		t.Fatalf("ragged step: %v", err)
	}
	if _, err := rc.StepStream(ctx, twin.SessionID, &serve.StepsRequest{Steps: []serve.StepRequest{ragged}}); kindOf(err) != serve.KindBadRequest {
		t.Fatalf("ragged stream: %v", err)
	}
	if st, err := rc.StepStream(ctx, id, &serve.StepsRequest{Steps: steps[:1]}); err == nil {
		_, err = st.Recv()
		st.Close()
		if kindOf(err) != serve.KindNotFound {
			t.Fatalf("stream on a closed session: %v", err)
		}
	} else if kindOf(err) != serve.KindNotFound {
		t.Fatalf("stream on a closed session: %v", err)
	}

	// A peer that is not there is unavailable.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := DialRemote(ln.Addr().String())
	ln.Close()
	defer dead.Close()
	if _, err := dead.Healthz(ctx); kindOf(err) != serve.KindUnavailable {
		t.Fatalf("healthz of a dead peer: %v", err)
	}

	// A status with no gRPC body is a proxy's, typed as serve.Remote types
	// it: the retryable ones keep their meaning, anything else is internal,
	// and so is a 200 that is not gRPC.
	for status, kind := range map[int]serve.Kind{
		http.StatusBadGateway:         serve.KindUnavailable,
		http.StatusServiceUnavailable: serve.KindUnavailable,
		http.StatusGatewayTimeout:     serve.KindUnavailable,
		http.StatusTooManyRequests:    serve.KindOverloaded,
		http.StatusTeapot:             serve.KindInternal,
		http.StatusOK:                 serve.KindInternal,
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		proxy := NewHTTPServer(ln.Addr().String(), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(status)
			w.Write([]byte("<html>proxy page</html>"))
		}))
		go proxy.Serve(ln)
		rc := DialRemote(ln.Addr().String())
		_, err = rc.Stats(ctx)
		rc.Close()
		proxy.Close()
		if kindOf(err) != kind {
			t.Errorf("proxy status %d: %v, want kind %s", status, err, kind)
		}
	}

	// A gRPC answer whose message is framed wrongly — compressed, or
	// longer than DefaultMaxRecvBytes — came from a peer, so it is
	// internal on a unary call and on a stream alike; a body cut short
	// stays unavailable.
	for _, tc := range []struct {
		name string
		body []byte
		kind serve.Kind
	}{
		{"compressed", []byte{1, 0, 0, 0, 1, 0}, serve.KindInternal},
		{"oversized", []byte{0, 0x7f, 0xff, 0xff, 0xff}, serve.KindInternal},
		{"truncated", []byte{0, 0, 0, 0, 5, 1}, serve.KindUnavailable},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peer := NewHTTPServer(ln.Addr().String(), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", ContentType)
			w.Write(tc.body)
		}))
		go peer.Serve(ln)
		rc := DialRemote(ln.Addr().String())
		_, herr := rc.Healthz(ctx)
		st, serr := rc.StepStream(ctx, 1, &serve.StepsRequest{Steps: steps[:1]})
		if serr == nil {
			_, serr = st.Recv()
			st.Close()
		}
		rc.Close()
		peer.Close()
		if kindOf(herr) != tc.kind {
			t.Errorf("healthz answered with a %s message: %v, want kind %s", tc.name, herr, tc.kind)
		}
		if kindOf(serr) != tc.kind {
			t.Errorf("stream answered with a %s message: %v, want kind %s", tc.name, serr, tc.kind)
		}
	}
}
