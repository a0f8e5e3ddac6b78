package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/attention"
	"repro/internal/core"
	"repro/internal/index/graph"
	"repro/internal/model"
	"repro/internal/serve"
	agrpc "repro/internal/serve/grpc"
	"repro/internal/serve/grpc/pb"
	"repro/internal/workload"
)

// env mounts both transports over ONE Service: same sessions, same
// scheduler, same metrics — the deployment shape alayad -grpc-addr runs.
type env struct {
	srv  *serve.Server
	hts  *httptest.Server
	conn *agrpc.ClientConn
	m    *model.Model
	inst workload.Instance
}

func newEnv(t *testing.T, svcOpts []serve.Option, grpcOpts []agrpc.Option) *env {
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
	inst := workload.Generate(p, 23, 300, 64, 32)
	if _, err := db.ImportDoc(inst.Doc); err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(db, svcOpts...)
	hts := httptest.NewServer(srv.Handler())
	gsrv := agrpc.NewServer(srv.Service(), grpcOpts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ghs := agrpc.NewHTTPServer(ln.Addr().String(), gsrv.Handler())
	go ghs.Serve(ln)
	conn := agrpc.Dial(ln.Addr().String())
	t.Cleanup(func() {
		conn.Close()
		ghs.Close()
		hts.Close()
		srv.Close()
		db.Close()
	})
	return &env{srv: srv, hts: hts, conn: conn, m: m, inst: inst}
}

func (e *env) queries(step int) [][][]float32 {
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

// newSession opens and prefills a session through the shared Service so
// every transport sees identical starting state.
func (e *env) newSession(t *testing.T) int64 {
	t.Helper()
	resp, err := e.srv.Service().CreateSession(&serve.CreateSessionRequest{Seed: e.inst.Doc.Seed, Tokens: e.inst.Doc.Tokens})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.srv.Service().Prefill(resp.SessionID); err != nil {
		t.Fatal(err)
	}
	return resp.SessionID
}

func mustFrame(t *testing.T, v interface{}) []byte {
	t.Helper()
	b, err := serve.MarshalFrame(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// wireResult is the transport-neutral outcome of one frame RPC: the raw
// response frame on success, or the typed kind plus the transport-native
// status it was mapped to.
type wireResult struct {
	ok         bool
	frame      []byte
	kind       serve.Kind
	httpStatus int        // HTTP transport only
	code       agrpc.Code // gRPC transport only
}

// streamRecv yields the raw stream frames of one step_stream call.
type streamRecv struct {
	next  func() (kind byte, payload []byte, err error)
	close func()
}

// transport issues frame-carrying calls over one wire. call and stream
// return an error only for transport-machinery failures; service errors
// land typed in the wireResult.
type transport struct {
	name   string
	call   func(id int64, action string, frame []byte) (wireResult, error)
	stream func(ctx context.Context, id int64, frame []byte) (*streamRecv, error)
}

func httpTransport(e *env) transport {
	call := func(id int64, action string, frame []byte) (wireResult, error) {
		req, err := http.NewRequest(http.MethodPost,
			fmt.Sprintf("%s/v1/sessions/%d/%s", e.hts.URL, id, action), bytes.NewReader(frame))
		if err != nil {
			return wireResult{}, err
		}
		req.Header.Set("Content-Type", serve.FrameContentType)
		req.Header.Set("Accept", serve.FrameContentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return wireResult{}, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return wireResult{}, err
		}
		if resp.StatusCode != http.StatusOK {
			var env serve.ErrorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				return wireResult{}, fmt.Errorf("http %s: status %d with non-envelope body %q", action, resp.StatusCode, body)
			}
			return wireResult{kind: env.Kind, httpStatus: resp.StatusCode}, nil
		}
		return wireResult{ok: true, frame: body}, nil
	}
	stream := func(ctx context.Context, id int64, frame []byte) (*streamRecv, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			fmt.Sprintf("%s/v1/sessions/%d/step_stream", e.hts.URL, id), bytes.NewReader(frame))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", serve.FrameContentType)
		req.Header.Set("Accept", serve.FrameContentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("http step_stream: status %d", resp.StatusCode)
		}
		sc := serve.NewStreamScanner(resp.Body)
		return &streamRecv{
			next:  sc.ReadFrame,
			close: func() { io.Copy(io.Discard, resp.Body); resp.Body.Close() },
		}, nil
	}
	return transport{name: "http", call: call, stream: stream}
}

// methodFor maps an HTTP action to its gRPC path. The retired decode
// calls keep their old paths here so the conformance suite can pin what an
// old client now gets.
var methodFor = map[string]string{
	"step":          pb.MethodStep,
	"update":        "/alaya.v1.AlayaDB/Update",
	"attention":     "/alaya.v1.AlayaDB/Attention",
	"attention_all": "/alaya.v1.AlayaDB/AttentionAll",
	"steps":         "/alaya.v1.AlayaDB/Steps",
}

func grpcTransport(e *env) transport {
	call := func(id int64, action string, frame []byte) (wireResult, error) {
		method, known := methodFor[action]
		if !known {
			return wireResult{}, fmt.Errorf("grpc transport: no method for action %q", action)
		}
		var out pb.FrameResponse
		err := e.conn.Invoke(context.Background(), method, &pb.FrameRequest{SessionID: id, Frame: frame}, &out)
		if err != nil {
			var st *agrpc.StatusError
			if !errors.As(err, &st) {
				return wireResult{}, fmt.Errorf("grpc %s: %w", action, err)
			}
			return wireResult{kind: st.Kind, code: st.Code}, nil
		}
		return wireResult{ok: true, frame: out.Frame}, nil
	}
	stream := func(ctx context.Context, id int64, frame []byte) (*streamRecv, error) {
		gs, err := e.conn.OpenStream(ctx, pb.MethodStepStream, &pb.FrameRequest{SessionID: id, Frame: frame})
		if err != nil {
			return nil, err
		}
		return &streamRecv{
			next: func() (byte, []byte, error) {
				var msg pb.FrameResponse
				if err := gs.Recv(&msg); err != nil {
					return 0, nil, err
				}
				return serve.NewStreamScanner(bytes.NewReader(msg.Frame)).ReadFrame()
			},
			close: func() { gs.Close() },
		}, nil
	}
	return transport{name: "grpc", call: call, stream: stream}
}

func transports(e *env) []transport {
	return []transport{httpTransport(e), grpcTransport(e)}
}

// checkKind asserts one probe's outcome on one transport: the expected
// kind, mapped to that transport's native status by the shared tables.
func checkKind(t *testing.T, tr transport, probe string, res wireResult, want serve.Kind) {
	t.Helper()
	if res.ok {
		t.Fatalf("%s/%s: succeeded, want kind %q", tr.name, probe, want)
	}
	if res.kind != want {
		t.Fatalf("%s/%s: kind %q, want %q", tr.name, probe, res.kind, want)
	}
	switch tr.name {
	case "http":
		if res.httpStatus != serve.HTTPStatus(want) {
			t.Fatalf("%s/%s: HTTP status %d, want %d", tr.name, probe, res.httpStatus, serve.HTTPStatus(want))
		}
	case "grpc":
		if res.code != agrpc.CodeForKind(want) {
			t.Fatalf("%s/%s: gRPC code %v, want %v", tr.name, probe, res.code, agrpc.CodeForKind(want))
		}
	}
}

// TestErrorModelConformance sweeps the typed error kinds both transports
// can provoke and requires identical kinds, each mapped to the
// transport's native status by the one shared table.
func TestErrorModelConformance(t *testing.T) {
	e := newEnv(t, nil, nil)
	id := e.newSession(t)
	stepFrame := mustFrame(t, &serve.StepRequest{Token: e.inst.Doc.Tokens[0], Queries: e.queries(0)})
	removedKind := bytes.Clone(stepFrame)
	removedKind[5] = 1 // the retired per-head attention request

	probes := []struct {
		name   string
		id     int64
		action string
		frame  []byte
		want   serve.Kind
	}{
		{"unknown-session", 424242, "step", stepFrame, serve.KindNotFound},
		{"malformed-frame", id, "step", []byte("not a frame"), serve.KindBadRequest},
		{"removed-kind-frame", id, "step", removedKind, serve.KindBadRequest},
	}
	for _, probe := range probes {
		for _, tr := range transports(e) {
			res, err := tr.call(probe.id, probe.action, probe.frame)
			if err != nil {
				t.Fatalf("%s/%s: %v", tr.name, probe.name, err)
			}
			checkKind(t, tr, probe.name, res, probe.want)
		}
	}

	// The retired decode calls are unknown on both wires: an unknown
	// action over HTTP (not_found), the server's unknown-method status
	// over gRPC (method_not_allowed, UNIMPLEMENTED).
	for _, action := range []string{"update", "attention", "attention_all", "steps"} {
		for _, tr := range transports(e) {
			res, err := tr.call(id, action, stepFrame)
			if err != nil {
				t.Fatalf("%s/removed-%s: %v", tr.name, action, err)
			}
			want := serve.KindNotFound
			if tr.name == "grpc" {
				want = serve.KindMethodNotAllowed
			}
			checkKind(t, tr, "removed-"+action, res, want)
		}
	}

	// A valid step succeeds on both before the service drains...
	for _, tr := range transports(e) {
		res, err := tr.call(id, "step", stepFrame)
		if err != nil || !res.ok {
			t.Fatalf("%s/step: err %v, result %+v", tr.name, err, res)
		}
	}
	// ...and answers unavailable on both after: the drain bugfix contract
	// (shutdown rejections are 503/UNAVAILABLE, never 429/500).
	e.srv.Close()
	for _, tr := range transports(e) {
		res, err := tr.call(id, "step", stepFrame)
		if err != nil {
			t.Fatalf("%s/drained: %v", tr.name, err)
		}
		checkKind(t, tr, "drained", res, serve.KindUnavailable)
	}
}

// TestTooLargeConformance bounds both receive paths identically and
// requires the same too_large kind (413 / RESOURCE_EXHAUSTED).
func TestTooLargeConformance(t *testing.T) {
	e := newEnv(t,
		[]serve.Option{serve.WithMaxBodyBytes(256)},
		[]agrpc.Option{agrpc.WithMaxRecvBytes(256)})
	id := e.newSession(t)
	frame := mustFrame(t, &serve.StepRequest{Token: e.inst.Doc.Tokens[0], Queries: e.queries(0)})
	if len(frame) <= 256 {
		t.Fatalf("step frame only %d bytes; raise the probe size", len(frame))
	}
	for _, tr := range transports(e) {
		res, err := tr.call(id, "step", frame)
		if err != nil {
			t.Fatalf("%s: %v", tr.name, err)
		}
		checkKind(t, tr, "too-large", res, serve.KindTooLarge)
	}
}

// TestStepBitwiseIdentity decodes the same step sequence through the
// direct Service call and both transports and requires the marshaled
// response frames to be byte-for-byte identical: the transports add
// framing, never re-encoding.
func TestStepBitwiseIdentity(t *testing.T) {
	e := newEnv(t, nil, nil)
	trs := transports(e)
	direct := e.newSession(t)
	ids := make([]int64, len(trs))
	for i := range trs {
		ids[i] = e.newSession(t)
	}
	tok := e.inst.Doc.Tokens[0]

	for step := 0; step < 3; step++ {
		req := &serve.StepRequest{Token: tok, Queries: e.queries(step)}
		frame := mustFrame(t, req)
		resp, err := e.srv.Service().Step(direct, req)
		if err != nil {
			t.Fatal(err)
		}
		want := mustFrame(t, resp)
		for i, tr := range trs {
			res, err := tr.call(ids[i], "step", frame)
			if err != nil || !res.ok {
				t.Fatalf("%s step %d: err %v, result kind %q", tr.name, step, err, res.kind)
			}
			if !bytes.Equal(res.frame, want) {
				t.Fatalf("%s step %d: response frame differs from direct service (%d vs %d bytes)",
					tr.name, step, len(res.frame), len(want))
			}
		}
	}

	// A streamed batch: each item carries exactly the frame of the same
	// step issued as a unary call on the direct session.
	batch := &serve.StepsRequest{Steps: []serve.StepRequest{
		{Token: tok, Queries: e.queries(3)},
		{Token: tok, Queries: e.queries(4)},
	}}
	frame := mustFrame(t, batch)
	var want [][]byte
	for i := range batch.Steps {
		resp, err := e.srv.Service().Step(direct, &batch.Steps[i])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, mustFrame(t, resp))
	}
	for i, tr := range trs {
		sr, err := tr.stream(context.Background(), ids[i], frame)
		if err != nil {
			t.Fatalf("%s step_stream: %v", tr.name, err)
		}
		for n := 0; ; n++ {
			kind, payload, err := sr.next()
			if err != nil {
				t.Fatalf("%s step_stream: read: %v", tr.name, err)
			}
			if kind == serve.FrameStreamEnd {
				items, env, err := serve.DecodeStreamEnd(payload)
				if err != nil || env.Kind != "" || items != len(want) || n != len(want) {
					t.Fatalf("%s step_stream: end after %d frames: items=%d env=%+v err=%v", tr.name, n, items, env, err)
				}
				break
			}
			if kind != serve.FrameStreamItem || n >= len(want) {
				t.Fatalf("%s step_stream: frame %d kind %d", tr.name, n, kind)
			}
			if !bytes.Equal(payload, want[n]) {
				t.Fatalf("%s step_stream item %d: frame differs from the unary step (%d vs %d bytes)",
					tr.name, n, len(payload), len(want[n]))
			}
		}
		sr.close()
	}
}

// TestStreamBitwiseIdentity runs one step_stream batch over both
// transports and requires the identical sequence of stream item frames.
func TestStreamBitwiseIdentity(t *testing.T) {
	e := newEnv(t, nil, nil)
	tok := e.inst.Doc.Tokens[0]
	batch := &serve.StepsRequest{Steps: []serve.StepRequest{
		{Token: tok, Queries: e.queries(0)},
		{Token: tok, Queries: e.queries(1)},
		{Token: tok, Queries: e.queries(2)},
	}}
	frame := mustFrame(t, batch)

	items := make(map[string][][]byte)
	for _, tr := range transports(e) {
		id := e.newSession(t)
		sr, err := tr.stream(context.Background(), id, frame)
		if err != nil {
			t.Fatalf("%s: %v", tr.name, err)
		}
		for {
			kind, payload, err := sr.next()
			if err != nil {
				t.Fatalf("%s: stream read: %v", tr.name, err)
			}
			if kind == serve.FrameStreamEnd {
				n, env, err := serve.DecodeStreamEnd(payload)
				if err != nil || env.Kind != "" || n != len(batch.Steps) {
					t.Fatalf("%s: stream end n=%d env=%+v err=%v", tr.name, n, env, err)
				}
				break
			}
			if kind != serve.FrameStreamItem {
				t.Fatalf("%s: unexpected frame kind %d", tr.name, kind)
			}
			items[tr.name] = append(items[tr.name], append([]byte(nil), payload...))
		}
		sr.close()
	}
	httpItems, grpcItems := items["http"], items["grpc"]
	if len(httpItems) != len(grpcItems) || len(httpItems) != len(batch.Steps) {
		t.Fatalf("item counts: http %d, grpc %d, want %d", len(httpItems), len(grpcItems), len(batch.Steps))
	}
	for i := range httpItems {
		if !bytes.Equal(httpItems[i], grpcItems[i]) {
			t.Fatalf("stream item %d differs across transports (%d vs %d bytes)",
				i, len(httpItems[i]), len(grpcItems[i]))
		}
	}
}

// TestStreamArrivalOverlap pins the streaming-overlap contract on each
// transport: with single-step waves, item N must be readable off the wire
// while the scheduler is still held at the gate before wave N+1 — a
// transport that buffers the stream to its end deadlocks here and fails
// by timeout.
func TestStreamArrivalOverlap(t *testing.T) {
	for _, name := range []string{"http", "grpc"} {
		t.Run(name, func(t *testing.T) {
			e := newEnv(t, []serve.Option{serve.WithWaveSize(1)}, nil)
			gateCh := make(chan int)
			goCh := make(chan struct{})
			// Cleanups run last-registered first, so this releases a gate
			// still held after a t.Fatalf before newEnv's cleanup closes
			// the Service, which waits for the wave to drain.
			stop := make(chan struct{})
			t.Cleanup(func() { close(stop) })
			e.srv.Service().Scheduler().SetWaveGate(func(wave int) {
				select {
				case gateCh <- wave:
				case <-stop:
					return
				}
				select {
				case <-goCh:
				case <-stop:
				}
			})
			id := e.newSession(t)
			tok := e.inst.Doc.Tokens[0]
			const steps = 3
			batch := &serve.StepsRequest{}
			for i := 0; i < steps; i++ {
				batch.Steps = append(batch.Steps, serve.StepRequest{Token: tok, Queries: e.queries(i)})
			}
			frame := mustFrame(t, batch)

			var tr transport
			if name == "http" {
				tr = httpTransport(e)
			} else {
				tr = grpcTransport(e)
			}
			arrived := make(chan int, steps)
			done := make(chan error, 1)
			go func() {
				sr, err := tr.stream(context.Background(), id, frame)
				if err != nil {
					done <- err
					return
				}
				defer sr.close()
				idx := 0
				for {
					kind, _, err := sr.next()
					if err != nil {
						done <- fmt.Errorf("stream read: %w", err)
						return
					}
					switch kind {
					case serve.FrameStreamItem:
						arrived <- idx
						idx++
					case serve.FrameStreamEnd:
						done <- nil
						return
					}
				}
			}()

			deadline := time.After(30 * time.Second)
			for wave := 0; wave < steps-1; wave++ {
				select {
				case w := <-gateCh:
					if w != wave {
						t.Fatalf("gate saw wave %d, want %d", w, wave)
					}
				case err := <-done:
					t.Fatalf("stream finished before wave %d: %v", wave, err)
				case <-deadline:
					t.Fatalf("timed out waiting for wave %d", wave)
				}
				// The gate is holding wave+1; item `wave` must cross now.
				select {
				case i := <-arrived:
					if i != wave {
						t.Fatalf("item %d arrived, want %d", i, wave)
					}
				case err := <-done:
					t.Fatalf("stream finished while awaiting item %d: %v", wave, err)
				case <-deadline:
					t.Fatalf("item %d not readable before wave %d ran: transport buffers stream items", wave, wave+1)
				}
				goCh <- struct{}{}
			}
			// The last wave holds no later wave behind its gate, and the
			// gate runs after the wave's jobs finish, so its item and the
			// stream end may cross before the gate reports it. stop
			// releases that gate at cleanup.
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-deadline:
				t.Fatal("stream did not finish")
			}
			// The reader queues each item before it reads the end frame.
			if i := <-arrived; i != steps-1 {
				t.Fatalf("last item %d arrived, want %d", i, steps-1)
			}
		})
	}
}

// TestSharedMetrics pins that both transports account into the same
// per-endpoint counters: N calls over HTTP plus M over gRPC show up as
// N+M on the shared Service.
func TestSharedMetrics(t *testing.T) {
	e := newEnv(t, nil, nil)
	id := e.newSession(t)
	frame := mustFrame(t, &serve.StepRequest{Token: e.inst.Doc.Tokens[0], Queries: e.queries(0)})
	before := stepCount(e)
	for i, tr := range []transport{httpTransport(e), grpcTransport(e), grpcTransport(e)} {
		if res, err := tr.call(id, "step", frame); err != nil || !res.ok {
			t.Fatalf("call %d (%s): err %v, kind %q", i, tr.name, err, res.kind)
		}
	}
	if got := stepCount(e); got != before+3 {
		t.Fatalf("shared step counter: %d, want %d", got, before+3)
	}
}

func stepCount(e *env) int64 {
	for _, ep := range e.srv.Service().EndpointStats() {
		if ep.Endpoint == "step" {
			return ep.Requests
		}
	}
	return 0
}
