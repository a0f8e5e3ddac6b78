package grpc

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/attention"
	"repro/internal/core"
	"repro/internal/index/graph"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/serve/grpc/pb"
	"repro/internal/workload"
)

// testConn stands up a full stack — service core, h2c listener, gRPC
// server, dialed client — and tears it down with the test.
func testConn(t *testing.T, opts ...Option) (*ClientConn, *model.Model, *serve.Service) {
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
	svc := serve.NewService(db)
	gs := NewServer(svc, opts...)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHTTPServer(ln.Addr().String(), gs.Handler())
	go hs.Serve(ln)

	conn := Dial(ln.Addr().String())
	t.Cleanup(func() {
		conn.Close()
		hs.Close()
		svc.Close()
		db.Close()
	})
	return conn, m, svc
}

func stepFrame(t *testing.T, m *model.Model, doc *model.Document, topics []int, step int) []byte {
	t.Helper()
	mc := m.Config()
	qs := make([][][]float32, mc.Layers)
	for l := range qs {
		qs[l] = make([][]float32, mc.QHeads)
		for h := range qs[l] {
			qs[l][h] = m.QueryVector(doc, l, h, model.QuerySpec{
				FocusTopics: topics, Step: step, ContextLen: doc.Len()})
		}
	}
	frame, err := serve.MarshalFrame(&serve.StepRequest{
		Token:   model.Token{Topic: 1, Payload: 2 + step},
		Queries: qs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestGRPCLifecycle drives the whole engine protocol over the wire:
// create, prefill, step (binary frame in a proto envelope), attend-only
// step, store, stats, close.
func TestGRPCLifecycle(t *testing.T) {
	conn, m, _ := testConn(t)
	ctx := context.Background()
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 3, 300, 64, 32)

	tokens := make([]pb.Token, len(inst.Doc.Tokens))
	for i, tok := range inst.Doc.Tokens {
		tokens[i] = pb.Token{Topic: int64(tok.Topic), Payload: int64(tok.Payload), Salience: tok.Salience}
	}
	var created pb.CreateSessionResponse
	if err := conn.Invoke(ctx, pb.MethodCreateSession, &pb.CreateSessionRequest{Seed: inst.Doc.Seed, Tokens: tokens}, &created); err != nil {
		t.Fatal(err)
	}
	if created.SessionID == 0 || created.Reused != 0 {
		t.Fatalf("created = %+v", created)
	}
	id := created.SessionID

	var pf pb.PrefillResponse
	if err := conn.Invoke(ctx, pb.MethodPrefill, &pb.SessionRequest{SessionID: id}, &pf); err != nil {
		t.Fatal(err)
	}
	if pf.Prefilled != 300 || pf.ContextLen != 300 {
		t.Fatalf("prefill = %+v", pf)
	}

	var stepOut pb.FrameResponse
	frame := stepFrame(t, m, inst.Doc, inst.Question, 0)
	if err := conn.Invoke(ctx, pb.MethodStep, &pb.FrameRequest{SessionID: id, Frame: frame}, &stepOut); err != nil {
		t.Fatal(err)
	}
	var sr serve.StepResponse
	if err := serve.UnmarshalFrame(stepOut.Frame, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.ContextLen != 301 || len(sr.Layers) != m.Config().Layers {
		t.Fatalf("step = ctx %d, %d layers", sr.ContextLen, len(sr.Layers))
	}

	var attend serve.StepRequest
	if err := serve.UnmarshalFrame(stepFrame(t, m, inst.Doc, inst.Question, 1), &attend); err != nil {
		t.Fatal(err)
	}
	attend.AttendOnly = true
	attendFrame, err := serve.MarshalFrame(&attend)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Invoke(ctx, pb.MethodStep, &pb.FrameRequest{SessionID: id, Frame: attendFrame}, &stepOut); err != nil {
		t.Fatal(err)
	}
	if err := serve.UnmarshalFrame(stepOut.Frame, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.ContextLen != 301 {
		t.Fatalf("attend-only step ctx = %d, want 301 (nothing ingested)", sr.ContextLen)
	}

	var stored pb.StoreResponse
	if err := conn.Invoke(ctx, pb.MethodStore, &pb.SessionRequest{SessionID: id}, &stored); err != nil {
		t.Fatal(err)
	}
	if stored.StoredTokens != 301 {
		t.Fatalf("stored = %d", stored.StoredTokens)
	}

	var hz pb.HealthzResponse
	if err := conn.Invoke(ctx, pb.MethodHealthz, &pb.HealthzRequest{}, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.OpenSessions != 1 {
		t.Fatalf("healthz = %+v", hz)
	}

	var st pb.StatsResponse
	if err := conn.Invoke(ctx, pb.MethodStats, &pb.StatsRequest{}, &st); err != nil {
		t.Fatal(err)
	}
	var stats serve.StatsResponse
	if err := json.Unmarshal(st.StatsJSON, &stats); err != nil {
		t.Fatalf("stats_json: %v", err)
	}
	if stats.Contexts != 1 || stats.OpenSessions != 1 {
		t.Fatalf("stats = %+v", stats)
	}

	var closed pb.CloseSessionResponse
	if err := conn.Invoke(ctx, pb.MethodCloseSession, &pb.SessionRequest{SessionID: id}, &closed); err != nil {
		t.Fatal(err)
	}
	if closed.Status != "closed" {
		t.Fatalf("close status = %q", closed.Status)
	}
}

// TestGRPCStepStream checks the server-streaming RPC end to end: stream
// items arrive as FrameStreamItem frames, the terminator counts them.
func TestGRPCStepStream(t *testing.T) {
	conn, m, _ := testConn(t)
	ctx := context.Background()
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 4, 200, 64, 32)

	tokens := make([]pb.Token, len(inst.Doc.Tokens))
	for i, tok := range inst.Doc.Tokens {
		tokens[i] = pb.Token{Topic: int64(tok.Topic), Payload: int64(tok.Payload), Salience: tok.Salience}
	}
	var created pb.CreateSessionResponse
	if err := conn.Invoke(ctx, pb.MethodCreateSession, &pb.CreateSessionRequest{Seed: inst.Doc.Seed, Tokens: tokens}, &created); err != nil {
		t.Fatal(err)
	}
	var pf pb.PrefillResponse
	if err := conn.Invoke(ctx, pb.MethodPrefill, &pb.SessionRequest{SessionID: created.SessionID}, &pf); err != nil {
		t.Fatal(err)
	}

	const n = 3
	steps := make([]serve.StepRequest, n)
	for i := range steps {
		var sr serve.StepRequest
		if err := serve.UnmarshalFrame(stepFrame(t, m, inst.Doc, inst.Question, i), &sr); err != nil {
			t.Fatal(err)
		}
		steps[i] = sr
	}
	frame, err := serve.MarshalFrame(&serve.StepsRequest{Steps: steps})
	if err != nil {
		t.Fatal(err)
	}

	stream, err := conn.OpenStream(ctx, pb.MethodStepStream, &pb.FrameRequest{SessionID: created.SessionID, Frame: frame})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()

	items := 0
	sawEnd := false
	for {
		var msg pb.FrameResponse
		rerr := stream.Recv(&msg)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			t.Fatal(rerr)
		}
		sc := serve.NewStreamScanner(strings.NewReader(string(msg.Frame)))
		kind, payload, ferr := sc.ReadFrame()
		if ferr != nil {
			t.Fatal(ferr)
		}
		switch kind {
		case serve.FrameStreamItem:
			var sr serve.StepResponse
			if err := serve.UnmarshalFrame(payload, &sr); err != nil {
				t.Fatal(err)
			}
			if sr.ContextLen != 200+items+1 {
				t.Fatalf("item %d ctx = %d", items, sr.ContextLen)
			}
			items++
		case serve.FrameStreamEnd:
			gotItems, env, derr := serve.DecodeStreamEnd(payload)
			if derr != nil {
				t.Fatal(derr)
			}
			if gotItems != n || env.Kind != "" {
				t.Fatalf("stream end = %d items, env %+v", gotItems, env)
			}
			sawEnd = true
		default:
			t.Fatalf("unexpected frame kind %d", kind)
		}
	}
	if items != n || !sawEnd {
		t.Fatalf("stream: %d items, end=%v", items, sawEnd)
	}
}

// TestGRPCErrorModel sweeps wire-visible errors: typed kinds cross as
// their canonical codes plus the exact kind in the alaya-kind trailer.
func TestGRPCErrorModel(t *testing.T) {
	conn, m, svc := testConn(t)
	ctx := context.Background()

	var pf pb.PrefillResponse
	err := conn.Invoke(ctx, pb.MethodPrefill, &pb.SessionRequest{SessionID: 404}, &pf)
	var st *StatusError
	if !errors.As(err, &st) || st.Code != CodeNotFound || st.Kind != serve.KindNotFound {
		t.Fatalf("missing session: %v", err)
	}

	// Malformed inner frame → InvalidArgument.
	var fr pb.FrameResponse
	err = conn.Invoke(ctx, pb.MethodStep, &pb.FrameRequest{SessionID: 1, Frame: []byte("junk")}, &fr)
	if !errors.As(err, &st) || st.Code != CodeInvalidArgument || st.Kind != serve.KindBadRequest {
		t.Fatalf("bad frame: %v", err)
	}

	// A frame of a retired kind → InvalidArgument.
	removed := stepFrame(t, m, &model.Document{}, nil, 0)
	removed[5] = 1 // the retired per-head attention request
	err = conn.Invoke(ctx, pb.MethodStep, &pb.FrameRequest{SessionID: 1, Frame: removed}, &fr)
	if !errors.As(err, &st) || st.Code != CodeInvalidArgument || st.Kind != serve.KindBadRequest {
		t.Fatalf("removed-kind frame: %v", err)
	}

	// Unknown method → Unimplemented, and the retired decode calls are
	// unknown methods.
	for _, method := range []string{
		"/alaya.v1.AlayaDB/Bogus",
		"/alaya.v1.AlayaDB/Update",
		"/alaya.v1.AlayaDB/Attention",
		"/alaya.v1.AlayaDB/AttentionAll",
		"/alaya.v1.AlayaDB/Steps",
	} {
		err = conn.Invoke(ctx, method, &pb.FrameRequest{SessionID: 1, Frame: removed}, &fr)
		if !errors.As(err, &st) || st.Code != CodeUnimplemented || st.Kind != serve.KindMethodNotAllowed {
			t.Fatalf("%s: %v", method, err)
		}
	}

	// After Close the service drains with unavailable.
	svc.Close()
	err = conn.Invoke(ctx, pb.MethodPrefill, &pb.SessionRequest{SessionID: 404}, &pf)
	if !errors.As(err, &st) || st.Code != CodeNotFound {
		// Close drains sessions; a missing session is still NotFound. The
		// scheduler path is what answers Unavailable — covered by the
		// conformance suite.
		t.Fatalf("post-close: %v", err)
	}
}

// TestGRPCTooLarge bounds the receive size and checks the kind survives.
func TestGRPCTooLarge(t *testing.T) {
	conn, _, _ := testConn(t, WithMaxRecvBytes(64))
	var out pb.CreateSessionResponse
	tokens := make([]pb.Token, 100)
	for i := range tokens {
		tokens[i] = pb.Token{Topic: int64(i + 1), Payload: 7}
	}
	err := conn.Invoke(context.Background(), pb.MethodCreateSession, &pb.CreateSessionRequest{Seed: 1, Tokens: tokens}, &out)
	var st *StatusError
	if !errors.As(err, &st) || st.Code != CodeResourceExhausted || st.Kind != serve.KindTooLarge {
		t.Fatalf("oversized request: %v", err)
	}
}

// TestGRPCNonGRPCRequests checks the HTTP-layer rejections.
func TestGRPCNonGRPCRequests(t *testing.T) {
	conn, _, _ := testConn(t)
	resp, err := http.Get(conn.base + pb.MethodHealthz)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
	resp, err = http.Post(conn.base+pb.MethodHealthz, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("JSON POST status = %d", resp.StatusCode)
	}
}

// TestGRPCUsesHTTP2 pins the transport protocol: the gRPC wire requires
// HTTP/2, so an accidental HTTP/1.1 fallback in either peer's Protocols
// config must fail here before a real gRPC stack trips over it.
func TestGRPCUsesHTTP2(t *testing.T) {
	conn, _, _ := testConn(t)
	body := marshalMessage(&pb.HealthzRequest{})
	defer putMsgBuf(body)
	req, err := http.NewRequest(http.MethodPost, conn.base+pb.MethodHealthz, strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentType)
	req.Header.Set("TE", "trailers")
	resp, err := conn.hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Proto != "HTTP/2.0" {
		t.Fatalf("response proto = %s, want HTTP/2.0", resp.Proto)
	}
}

// TestStatusTables pins the kind↔code mapping — one table, mirroring
// serve.HTTPStatus, plus the lossy inverse.
func TestStatusTables(t *testing.T) {
	forward := map[serve.Kind]Code{
		serve.KindBadRequest:       CodeInvalidArgument,
		serve.KindNotFound:         CodeNotFound,
		serve.KindConflict:         CodeFailedPrecondition,
		serve.KindMethodNotAllowed: CodeUnimplemented,
		serve.KindTooLarge:         CodeResourceExhausted,
		serve.KindUnsupportedMedia: CodeInvalidArgument,
		serve.KindOverloaded:       CodeResourceExhausted,
		serve.KindUnavailable:      CodeUnavailable,
		serve.KindInternal:         CodeInternal,
		serve.Kind("mystery"):      CodeInternal,
	}
	for kind, want := range forward {
		if got := CodeForKind(kind); got != want {
			t.Errorf("CodeForKind(%s) = %s, want %s", kind, got, want)
		}
	}
	// Every mapped kind survives a round trip up to the documented
	// collisions (TooLarge→Overloaded, UnsupportedMedia→BadRequest).
	lossy := map[serve.Kind]serve.Kind{
		serve.KindTooLarge:         serve.KindOverloaded,
		serve.KindUnsupportedMedia: serve.KindBadRequest,
		serve.KindMethodNotAllowed: serve.KindMethodNotAllowed,
	}
	for kind := range forward {
		want := kind
		if to, ok := lossy[kind]; ok {
			want = to
		}
		if kind == serve.Kind("mystery") {
			want = serve.KindInternal
		}
		if got := KindForCode(CodeForKind(kind)); got != want {
			t.Errorf("KindForCode(CodeForKind(%s)) = %s, want %s", kind, got, want)
		}
	}
}

// TestMessageCoding covers the grpc-message percent coding and the
// timeout header codec.
func TestMessageCoding(t *testing.T) {
	for _, msg := range []string{"", "plain", "pct % sign", "newline\nand tab\t", "unicode ≠ ascii", "100%"} {
		enc := encodeGRPCMessage(msg)
		for i := 0; i < len(enc); i++ {
			if enc[i] < ' ' || enc[i] > '~' {
				t.Errorf("encode(%q) leaves raw byte %#x", msg, enc[i])
			}
		}
		if got := decodeGRPCMessage(enc); got != msg {
			t.Errorf("decode(encode(%q)) = %q", msg, got)
		}
	}
	// Malformed escapes pass through.
	if got := decodeGRPCMessage("50%% off%"); got != "50%% off%" && got != "50% off%" {
		t.Logf("lenient decode: %q", got)
	}

	for _, d := range []time.Duration{time.Millisecond, 250 * time.Millisecond, 3 * time.Second, 2 * time.Hour} {
		got, err := decodeTimeout(encodeTimeout(d))
		if err != nil {
			t.Fatalf("timeout %v: %v", d, err)
		}
		if got < d-time.Second || got > d+time.Second {
			t.Errorf("timeout round trip %v → %v", d, got)
		}
	}
	for _, bad := range []string{"", "m", "-1m", "10x", "99999999999999999999S"} {
		if _, err := decodeTimeout(bad); err == nil {
			t.Errorf("decodeTimeout(%q) accepted", bad)
		}
	}
}
