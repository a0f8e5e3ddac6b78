package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// kindOf returns err's kind, failing the test unless err is a *Error.
func kindOf(t *testing.T, err error) Kind {
	t.Helper()
	se, ok := err.(*Error)
	if !ok {
		t.Fatalf("error %v (%T) is not a *Error", err, err)
	}
	return se.Kind
}

// sameFrame fails unless got and want encode to the same frame bytes.
func sameFrame(t *testing.T, label string, got, want *StepResponse) {
	t.Helper()
	g, gerr := MarshalFrame(got)
	w, werr := MarshalFrame(want)
	if gerr != nil || werr != nil || !bytes.Equal(g, w) {
		t.Fatalf("%s: response differs from the service's (%v, %v)", label, gerr, werr)
	}
}

// TestHTTPRemoteMirrorsCore drives every Core operation through Remote
// and the same operation on the Service directly, on twin sessions over
// one document: responses must be identical (tensor ones frame for
// frame), and failures typed *Error values of the service's kind.
func TestHTTPRemoteMirrorsCore(t *testing.T) {
	srv, ts, m := testServer(t)
	svc := srv.Service()
	rc := NewRemote(ts.URL+"/", nil)
	ctx := context.Background()
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 5, 200, 64, 32)
	doc := &CreateSessionRequest{Seed: inst.Doc.Seed, Tokens: inst.Doc.Tokens}

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

	steps := make([]StepRequest, 3)
	for i := range steps {
		steps[i] = StepRequest{Token: model.Token{Topic: 1, Payload: i + 1}, Queries: stepQueriesFor(m, inst.Doc, inst.Question, i)}
	}
	got, err := rc.Step(ctx, id, &steps[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := svc.Step(twin.SessionID, &steps[0])
	if err != nil {
		t.Fatal(err)
	}
	sameFrame(t, "step", got, want)

	st, err := rc.StepStream(ctx, id, &StepsRequest{Steps: steps[1:]})
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
		sameFrame(t, "stream item", got, want)
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

	if _, err := rc.Prefill(ctx, id); kindOf(t, err) != KindNotFound {
		t.Fatalf("prefill of a closed session: %v", err)
	}
	if _, err := rc.StepStream(ctx, id, &StepsRequest{Steps: steps[:1]}); kindOf(t, err) != KindNotFound {
		t.Fatalf("stream on a closed session: %v", err)
	}
	ragged := steps[0]
	ragged.Queries = [][][]float32{{{1, 2}, {3}}}
	if _, err := rc.Step(ctx, twin.SessionID, &ragged); kindOf(t, err) != KindBadRequest {
		t.Fatalf("ragged step: %v", err)
	}
	if _, err := rc.StepStream(ctx, twin.SessionID, &StepsRequest{Steps: []StepRequest{ragged}}); kindOf(t, err) != KindBadRequest {
		t.Fatalf("ragged stream: %v", err)
	}

	// A peer that is not there is unavailable.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := NewRemote("http://"+ln.Addr().String(), nil)
	ln.Close()
	if _, err := dead.Healthz(ctx); kindOf(t, err) != KindUnavailable {
		t.Fatalf("healthz of a dead peer: %v", err)
	}

	// A status with no envelope is a proxy's: the retryable ones keep
	// their meaning, anything else is internal, and so is a 200 whose
	// body does not decode.
	for status, kind := range map[int]Kind{
		http.StatusBadGateway:         KindUnavailable,
		http.StatusServiceUnavailable: KindUnavailable,
		http.StatusGatewayTimeout:     KindUnavailable,
		http.StatusTooManyRequests:    KindOverloaded,
		http.StatusTeapot:             KindInternal,
		http.StatusOK:                 KindInternal,
	} {
		proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(status)
			w.Write([]byte("<html>proxy page</html>"))
		}))
		_, err := NewRemote(proxy.URL, nil).Stats(ctx)
		proxy.Close()
		if kindOf(t, err) != kind {
			t.Errorf("proxy status %d: %v, want kind %s", status, err, kind)
		}
	}
}

// TestHTTPRemoteStreamFaults feeds Remote.StepStream crafted response
// bodies: every protocol fault is internal, a terminator's error keeps its
// kind, and a caller that cancels mid-stream gets unavailable.
func TestHTTPRemoteStreamFaults(t *testing.T) {
	item, err := AppendStreamItemFrame(nil, &StepResponse{ContextLen: 1, Layers: [][]AttentionResponse{{{Output: []float32{1}}}}})
	if err != nil {
		t.Fatal(err)
	}
	end := AppendStreamEndFrame(nil, 1, ErrorEnvelope{})
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, tc := range []struct {
		name  string
		body  []byte
		items int
		kind  Kind
	}{
		{"no terminator", item, 1, KindInternal},
		{"bytes after the terminator", cat(item, end, make([]byte, 28)), 1, KindInternal},
		{"one byte after the terminator", cat(item, end, []byte{0}), 1, KindInternal},
		{"terminator miscounts", cat(item, AppendStreamEndFrame(nil, 2, ErrorEnvelope{})), 1, KindInternal},
		{"truncated frame", item[:len(item)-1], 0, KindInternal},
		{"bad frame kind", cat(item[:5], []byte{FrameStepRequest}, item[6:]), 0, KindInternal},
		{"undecodable item", cat(item[:frameHeaderLen], bytes.Repeat([]byte{0xAB}, len(item)-frameHeaderLen)), 0, KindInternal},
		{"terminator carries an error", cat(item, AppendStreamEndFrame(nil, 1, ErrorEnvelope{Error: "evicted", Kind: KindNotFound})), 1, KindNotFound},
		{"terminator error with no kind", cat(item, AppendStreamEndFrame(nil, 1, ErrorEnvelope{Error: "boom"})), 1, KindInternal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", FrameContentType)
				w.Write(tc.body)
			}))
			defer ts.Close()
			st, err := NewRemote(ts.URL, nil).StepStream(context.Background(), 1, &StepsRequest{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for i := 0; i < tc.items; i++ {
				if _, err := st.Recv(); err != nil {
					t.Fatalf("item %d: %v", i, err)
				}
			}
			_, err = st.Recv()
			if kindOf(t, err) != tc.kind {
				t.Fatalf("err %v, want kind %s", err, tc.kind)
			}
			if _, again := st.Recv(); again != err {
				t.Fatalf("terminal result changed from %v to %v", err, again)
			}
		})
	}

	t.Run("cancelled mid-stream", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", FrameContentType)
			w.Write(item)
			w.(http.Flusher).Flush()
			<-r.Context().Done()
		}))
		defer ts.Close()
		ctx, cancel := context.WithCancel(context.Background())
		st, err := NewRemote(ts.URL, nil).StepStream(ctx, 1, &StepsRequest{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if _, err := st.Recv(); err != nil {
			t.Fatal(err)
		}
		cancel()
		if _, err := st.Recv(); kindOf(t, err) != KindUnavailable {
			t.Fatalf("err %v, want kind unavailable", err)
		}
	})

	t.Run("closed early", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", FrameContentType)
			w.Write(cat(item, item, AppendStreamEndFrame(nil, 2, ErrorEnvelope{})))
		}))
		defer ts.Close()
		st, err := NewRemote(ts.URL, nil).StepStream(context.Background(), 1, &StepsRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Recv(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Recv(); kindOf(t, err) != KindUnavailable {
			t.Fatalf("Recv after Close: %v, want kind unavailable", err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	})
}

// TestStepStreamNDJSONMatchesSteps pins the server's JSON stream writer:
// a step_stream request without a frame Accept answers NDJSON, one
// StreamItemEnvelope per step, bit for bit the responses of unary steps
// on a twin session, then a clean terminator counting them.
func TestStepStreamNDJSONMatchesSteps(t *testing.T) {
	_, ts, m := testServer(t)
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 23, 300, 64, 32)
	doc := DocumentWire{Seed: inst.Doc.Seed, Tokens: inst.Doc.Tokens}
	session := func() string {
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
	const n = 4
	steps := make([]StepRequest, n)
	for i := range steps {
		steps[i] = StepRequest{Token: model.Token{Topic: 1, Payload: i + 1}, Queries: stepQueriesFor(m, inst.Doc, inst.Question, i)}
	}

	twin := session()
	want := make([]StepResponse, n)
	for i := range steps {
		if code := postJSON(t, twin+"/step", steps[i], &want[i]); code != http.StatusOK {
			t.Fatalf("unary step %d: status %d", i, code)
		}
	}

	raw, err := json.Marshal(StepsRequest{Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(session()+"/step_stream", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != NDJSONContentType {
		t.Fatalf("step_stream response: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<24)
	for i := 0; i < n; i++ {
		var item StreamItemEnvelope
		if !sc.Scan() {
			t.Fatalf("stream ended after %d items: %v", i, sc.Err())
		}
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil || item.Step == nil {
			t.Fatalf("line %d is not a stream item (%v): %s", i, err, sc.Bytes())
		}
		sameFrame(t, fmt.Sprintf("ndjson item %d", i), item.Step, &want[i])
	}
	var end StreamEndEnvelope
	if !sc.Scan() {
		t.Fatalf("no terminator: %v", sc.Err())
	}
	if err := json.Unmarshal(sc.Bytes(), &end); err != nil || end != (StreamEndEnvelope{StreamEnd: true, Items: n}) {
		t.Fatalf("terminator %s (%v), want a clean end of %d items", sc.Bytes(), err, n)
	}
	if sc.Scan() {
		t.Fatalf("line after the terminator: %s", sc.Bytes())
	}
}
