package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attention"
	"repro/internal/core"
	"repro/internal/index/graph"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/workload"
)

// schedService builds a Service over its own DB with an explicit worker
// pool and serve options — the scheduler-focused sibling of testService.
func schedService(t *testing.T, p *pool.Pool, opts ...Option) (*Service, *model.Model) {
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
		Pool:          p,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(db, opts...)
	t.Cleanup(func() {
		svc.Close()
		db.Close()
	})
	return svc, m
}

// holdLane makes streamed step n — counted across sch from 0 — wait
// inside the stream lane, before it computes, until release is called;
// held closes once the step waits there. A cleanup releases a hold that a
// failed assertion left behind, so teardown (which waits for the stream)
// fails fast instead of hanging. Cleanups run last-registered first, so
// it runs before schedService's teardown.
func holdLane(t *testing.T, sch *Scheduler, n int) (held <-chan struct{}, release func()) {
	h, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	sch.SetLaneHook(func(step int) {
		if step == n {
			close(h)
			<-gate
		}
	})
	return h, release
}

// waitUntil polls cond until it holds, failing the test after 30 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// cloneStep deep-copies a StepResponse so it survives Release.
func cloneStep(r *StepResponse) *StepResponse {
	out := &StepResponse{ContextLen: r.ContextLen, Layers: make([][]AttentionResponse, len(r.Layers))}
	for l := range r.Layers {
		out.Layers[l] = make([]AttentionResponse, len(r.Layers[l]))
		for h := range r.Layers[l] {
			a := r.Layers[l][h]
			a.Output = append([]float32(nil), a.Output...)
			out.Layers[l][h] = a
		}
	}
	return out
}

// diffStep reports the first bitwise difference between two step
// responses, or nil if identical. Safe to call off the test goroutine.
func diffStep(label string, got, want *StepResponse) error {
	if got.ContextLen != want.ContextLen {
		return fmt.Errorf("%s: context len %d vs %d", label, got.ContextLen, want.ContextLen)
	}
	for l := range want.Layers {
		for h := range want.Layers[l] {
			g, w := got.Layers[l][h], want.Layers[l][h]
			if g.Plan != w.Plan || g.Retrieved != w.Retrieved || g.Attended != w.Attended {
				return fmt.Errorf("%s L%dH%d metadata: %+v vs %+v", label, l, h, g, w)
			}
			if len(g.Output) != len(w.Output) {
				return fmt.Errorf("%s L%dH%d dims %d vs %d", label, l, h, len(g.Output), len(w.Output))
			}
			for i := range w.Output {
				if g.Output[i] != w.Output[i] {
					return fmt.Errorf("%s L%dH%d output[%d]: %x vs %x", label, l, h, i, g.Output[i], w.Output[i])
				}
			}
		}
	}
	return nil
}

// stepWire runs one validated decode step on an acquired session, writing
// into a pooled scratch, and returns the wire response (sans done hook).
func stepWire(sess *core.Session, req *StepRequest, sc *stepScratch, mc model.Config) *StepResponse {
	results := sc.grab(mc.Layers, mc.QHeads)
	if req.AttendOnly {
		sess.AttentionAllLayersInto(req.Queries, results)
	} else {
		sess.StepInto(req.Token, req.Queries, results)
	}
	return stepRespFromResults(results, sess.ContextLen(0))
}

// stepDirect is the serial reference the scheduler is measured against:
// one step on the caller's goroutine, under the session's lock, with no
// scheduler around it.
func (s *Service) stepDirect(id int64, req *StepRequest, mc model.Config) (*StepResponse, error) {
	sess, release, ok := s.reg.Acquire(id)
	if !ok {
		return nil, NotFoundf("no session %d", id)
	}
	defer release()
	if verr := checkSpanStep(sess, req); verr != nil {
		return nil, verr
	}
	sc := stepScratchPool.Get().(*stepScratch)
	resp := stepWire(sess, req, sc, mc)
	resp.done = func() { stepScratchPool.Put(sc) }
	return resp, nil
}

// newSchedSession creates and prefills one session for doc.
func newSchedSession(t *testing.T, svc *Service, doc *model.Document) int64 {
	t.Helper()
	created, err := svc.CreateSession(&CreateSessionRequest{Seed: doc.Seed, Tokens: doc.Tokens})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Prefill(created.SessionID); err != nil {
		t.Fatal(err)
	}
	return created.SessionID
}

// TestSchedulerBitwiseIdentityHammer is the correctness gate of the
// decode scheduler: N sessions hammering Step concurrently must produce,
// per session and step, outputs bitwise-identical to the serial direct
// path, with strictly FIFO per-session context growth. Run under -race
// this is also the scheduler's data-race gate.
func TestSchedulerBitwiseIdentityHammer(t *testing.T) {
	svc, m := schedService(t, pool.Default())
	mc := m.Config()
	const sessions = 4
	const stepsPer = 5

	type stream struct {
		doc      *model.Document
		topics   []int
		expected []*StepResponse
		id       int64
	}
	streams := make([]*stream, sessions)
	for i := range streams {
		p, _ := workload.ProfileByName("Retr.P")
		inst := workload.Generate(p, uint64(40+i), 300, 64, 32)
		streams[i] = &stream{doc: inst.Doc, topics: inst.Question}
	}

	// Expected outputs: the serial reference path, one session per
	// stream, decoded strictly in order.
	for _, st := range streams {
		id := newSchedSession(t, svc, st.doc)
		for n := 0; n < stepsPer; n++ {
			req := &StepRequest{Token: model.Token{Topic: 1, Payload: n + 1},
				Queries: stepQueriesFor(m, st.doc, st.topics, n)}
			resp, err := svc.stepDirect(id, req, mc)
			if err != nil {
				t.Fatal(err)
			}
			st.expected = append(st.expected, cloneStep(resp))
			resp.Release()
		}
		if _, err := svc.CloseSession(id); err != nil {
			t.Fatal(err)
		}
	}

	// Hammer: every stream decodes the same sequence concurrently through
	// the scheduler.
	for _, st := range streams {
		st.id = newSchedSession(t, svc, st.doc)
	}
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for si, st := range streams {
		wg.Add(1)
		go func(si int, st *stream) {
			defer wg.Done()
			for n := 0; n < stepsPer; n++ {
				req := &StepRequest{Token: model.Token{Topic: 1, Payload: n + 1},
					Queries: stepQueriesFor(m, st.doc, st.topics, n)}
				resp, err := svc.Step(st.id, req)
				if err != nil {
					errs <- fmt.Errorf("stream %d step %d: %w", si, n, err)
					return
				}
				if resp.ContextLen != st.doc.Len()+n+1 {
					errs <- fmt.Errorf("stream %d step %d: context %d, want %d (FIFO violated)",
						si, n, resp.ContextLen, st.doc.Len()+n+1)
					return
				}
				got := cloneStep(resp)
				resp.Release()
				if derr := diffStep(fmt.Sprintf("stream %d step %d", si, n), got, st.expected[n]); derr != nil {
					errs <- derr
					return
				}
			}
		}(si, st)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Only the hammer phase is scheduled; the expected outputs came from
	// the direct path.
	st := svc.sched.Stats()
	if st.Items != int64(sessions*stepsPer) {
		t.Fatalf("scheduler executed %d items, want %d", st.Items, sessions*stepsPer)
	}
	if st.Admitted != st.Items || st.Rejected != 0 {
		t.Fatalf("scheduler counters = %+v", st)
	}
}

// TestStepStreamOverlap pins the streaming contract with a deterministic
// step boundary: the first step's response reaches the sink while the
// batch's second step is held in the stream lane and exactly one of its
// three steps has run — i.e. streaming delivers results strictly before
// the batch completes.
func TestStepStreamOverlap(t *testing.T) {
	svc, m := schedService(t, pool.Default())
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 7, 300, 64, 32)
	id := newSchedSession(t, svc, inst.Doc)

	_, release := holdLane(t, svc.sched, 1)

	const steps = 3
	req := &StepsRequest{Steps: make([]StepRequest, steps)}
	for i := range req.Steps {
		req.Steps[i] = StepRequest{Token: model.Token{Topic: 1, Payload: i + 1},
			Queries: stepQueriesFor(m, inst.Doc, inst.Question, i)}
	}

	type arrival struct {
		ctxLen    int
		itemsDone int64 // scheduler items executed when this response arrived
	}
	arrivals := make(chan arrival, steps)
	done := make(chan error, 1)
	go func() {
		done <- svc.StepStream(context.Background(), id, req, func(resp *StepResponse) error {
			arrivals <- arrival{resp.ContextLen, svc.sched.Stats().Items}
			return nil
		})
	}()

	first := <-arrivals
	if first.ctxLen != inst.Doc.Len()+1 {
		t.Fatalf("first streamed response has context %d, want %d", first.ctxLen, inst.Doc.Len()+1)
	}
	if first.itemsDone != 1 {
		t.Fatalf("first response arrived after %d executed steps, want 1 (no overlap)", first.itemsDone)
	}
	release() // let the remaining steps run

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := 1; i < steps; i++ {
		a := <-arrivals
		if a.ctxLen != inst.Doc.Len()+i+1 {
			t.Fatalf("streamed response %d has context %d (order broken)", i, a.ctxLen)
		}
	}
}

// TestStepStreamHTTPOverlap proves the same overlap end to end over the
// wire: with the batch's second step held in the stream lane, the client
// reads the first binary frame off the chunked response while two of the
// batch's three steps have not executed yet.
func TestStepStreamHTTPOverlap(t *testing.T) {
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
	srv := NewServer(db)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		db.Close()
	})
	svc := srv.Service()

	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 11, 300, 64, 32)
	id := newSchedSession(t, svc, inst.Doc)

	// Registered after the teardown, so its cleanup releases the lane
	// before the server waits for the stream.
	_, release := holdLane(t, svc.sched, 1)
	released := false

	const steps = 3
	req := &StepsRequest{Steps: make([]StepRequest, steps)}
	for i := range req.Steps {
		req.Steps[i] = StepRequest{Token: model.Token{Topic: 1, Payload: i + 1},
			Queries: stepQueriesFor(m, inst.Doc, inst.Question, i)}
	}
	body, err := MarshalFrame(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, _ := http.NewRequest(http.MethodPost,
		fmt.Sprintf("%s/v1/sessions/%d/step_stream", ts.URL, id), bytes.NewReader(body))
	hreq.Header.Set("Content-Type", FrameContentType)
	hreq.Header.Set("Accept", FrameContentType)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != FrameContentType {
		t.Fatalf("step_stream response: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	sc := NewStreamScanner(resp.Body)
	got := 0
	for {
		kind, payload, err := sc.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if kind == FrameStreamEnd {
			items, env, err := DecodeStreamEnd(payload)
			if err != nil {
				t.Fatal(err)
			}
			if env.Error != "" || items != steps {
				t.Fatalf("stream end = %d items, env %+v", items, env)
			}
			break
		}
		if kind != FrameStreamItem {
			t.Fatalf("unexpected frame kind %d", kind)
		}
		var step StepResponse
		if err := UnmarshalFrame(payload, &step); err != nil {
			t.Fatal(err)
		}
		if step.ContextLen != inst.Doc.Len()+got+1 {
			t.Fatalf("frame %d has context %d (order broken)", got, step.ContextLen)
		}
		got++
		if got == 1 {
			// The first frame crossed the wire while the lane holds the
			// second step: the batch's later steps have not run.
			if items := svc.sched.Stats().Items; items != 1 {
				t.Fatalf("first frame arrived after %d executed steps, want 1", items)
			}
			released = true
			release()
		}
	}
	if got != steps || !released {
		t.Fatalf("received %d frames (released=%v), want %d", got, released, steps)
	}
}

// TestSchedulerBackpressure fills the admission bound while a stream is
// held in the lane and checks the typed overloaded rejection: singles and
// whole batches are refused atomically with ErrOverloaded (HTTP 429), and
// nothing of a refused batch is admitted.
func TestSchedulerBackpressure(t *testing.T) {
	svc, m := schedService(t, pool.Default(), WithQueueDepth(2))
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 5, 300, 64, 32)
	id := newSchedSession(t, svc, inst.Doc)
	mkStep := func(n int) StepRequest {
		return StepRequest{Token: model.Token{Topic: 1, Payload: n + 1},
			Queries: stepQueriesFor(m, inst.Doc, inst.Question, n)}
	}

	held, release := holdLane(t, svc.sched, 0)

	// A two-step stream: its first step is held in the lane, its second
	// is admitted and not yet started.
	streamed := 0
	streamDone := make(chan error, 1)
	go func() {
		streamDone <- svc.StepStream(context.Background(), id, &StepsRequest{Steps: []StepRequest{mkStep(0), mkStep(1)}},
			func(*StepResponse) error { streamed++; return nil })
	}()
	<-held
	if d := svc.sched.Stats().QueueDepth; d != 1 {
		t.Fatalf("queue depth = %d, want 1", d)
	}

	// A unary step on the held session waits for it, counted as queued:
	// the bound of 2 is reached.
	unaryStep := mkStep(2)
	unary := make(chan error, 1)
	go func() {
		resp, err := svc.Step(id, &unaryStep)
		if err == nil {
			if resp.ContextLen != inst.Doc.Len()+3 {
				err = fmt.Errorf("unary step behind the stream: context %d, want %d", resp.ContextLen, inst.Doc.Len()+3)
			}
			resp.Release()
		}
		unary <- err
	}()
	waitUntil(t, "the unary step to queue", func() bool { return svc.sched.Stats().QueueDepth == 2 })

	// A single step over a full queue: typed overloaded error, 429.
	first := mkStep(0)
	if _, err := svc.Step(id, &first); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("step over full queue: %v, want ErrOverloaded", err)
	} else if HTTPStatus(Envelope(err).Kind) != http.StatusTooManyRequests {
		t.Fatalf("overloaded status = %d", HTTPStatus(Envelope(err).Kind))
	}

	// A whole batch over a full queue: rejected atomically — the queue
	// depth does not move.
	err := svc.StepStream(context.Background(), id, &StepsRequest{Steps: []StepRequest{mkStep(3), mkStep(4)}},
		func(*StepResponse) error { t.Error("sink called for a rejected batch"); return nil })
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("batch over full queue: %v, want ErrOverloaded", err)
	}
	if d := svc.sched.Stats().QueueDepth; d != 2 {
		t.Fatalf("queue depth after atomic rejection = %d, want 2", d)
	}

	release()
	if err := <-streamDone; err != nil {
		t.Fatal(err)
	}
	if err := <-unary; err != nil {
		t.Fatal(err)
	}
	if streamed != 2 {
		t.Fatalf("stream delivered %d items, want 2", streamed)
	}

	st := svc.sched.Stats()
	if st.Admitted != 3 || st.Rejected != 3 || st.Items != 3 || st.QueueDepth != 0 {
		t.Fatalf("scheduler counters = %+v", st)
	}
}

// TestStepStreamSinkErrorAbandonsTail: a failing sink ends the batch —
// the remaining steps never enter the stream lane, and the session's
// context shows only the executed prefix.
func TestStepStreamSinkErrorAbandonsTail(t *testing.T) {
	svc, m := schedService(t, pool.Default())
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 9, 300, 64, 32)
	id := newSchedSession(t, svc, inst.Doc)

	// Count the streamed steps after the first that reach the lane.
	var tail atomic.Int32
	svc.sched.SetLaneHook(func(step int) {
		if step > 0 {
			tail.Add(1)
		}
	})

	req := &StepsRequest{Steps: make([]StepRequest, 4)}
	for i := range req.Steps {
		req.Steps[i] = StepRequest{Token: model.Token{Topic: 1, Payload: i + 1},
			Queries: stepQueriesFor(m, inst.Doc, inst.Question, i)}
	}
	sinkErr := errors.New("sink full")
	calls := 0
	err := svc.StepStream(context.Background(), id, req, func(*StepResponse) error {
		calls++
		return sinkErr
	})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("stream err = %v, want the sink error", err)
	}
	if calls != 1 {
		t.Fatalf("sink called %d times after failing, want 1", calls)
	}
	if n := tail.Load(); n != 0 {
		t.Fatalf("%d abandoned steps entered the stream lane", n)
	}

	// Only the first step decoded; the abandoned tail never touched the
	// session. The probe step's token is the +1.
	resp, err := svc.Step(id, &StepRequest{Token: model.Token{Topic: 1, Payload: 99},
		Queries: stepQueriesFor(m, inst.Doc, inst.Question, 4)})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Release()
	if resp.ContextLen != inst.Doc.Len()+2 {
		t.Fatalf("context %d, want %d: abandoned tail was decoded", resp.ContextLen, inst.Doc.Len()+2)
	}
}

// TestStepStreamCancelStops: a stream whose context is cancelled stops
// on the server before its next step — the call returns the context's
// error, the sink sees no item after the cancel, and the session ingests
// only the step that ran.
func TestStepStreamCancelStops(t *testing.T) {
	svc, m := schedService(t, pool.Default())
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 31, 300, 64, 32)
	id := newSchedSession(t, svc, inst.Doc)
	contextLen := func() int {
		sess, release, ok := svc.reg.Acquire(id)
		if !ok {
			t.Fatal("session vanished")
		}
		defer release()
		return sess.ContextLen(0)
	}
	before := contextLen()

	req := &StepsRequest{Steps: make([]StepRequest, 3)}
	for i := range req.Steps {
		req.Steps[i] = StepRequest{Token: model.Token{Topic: 1, Payload: i + 1},
			Queries: stepQueriesFor(m, inst.Doc, inst.Question, i)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	items := 0
	err := svc.StepStream(ctx, id, req, func(*StepResponse) error {
		items++
		if items == 1 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("stream err = %v, want context.Canceled", err)
	}
	if items != 1 {
		t.Fatalf("sink saw %d items, want 1", items)
	}
	if got := contextLen(); got != before+1 {
		t.Fatalf("context grew %d → %d, want exactly one step", before, got)
	}
	if d := svc.sched.Stats().QueueDepth; d != 0 {
		t.Fatalf("queue depth after the cancelled stream = %d, want 0", d)
	}
}

// TestStepsBoundTyped: a batch over MaxSteps is refused up front with the
// typed invalid-argument error — before any step runs — and a batch at
// the bound streams every step, bitwise-identical to unary Steps on a
// twin session.
func TestStepsBoundTyped(t *testing.T) {
	svc, m := schedService(t, pool.Default())
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 13, 300, 64, 32)
	id := newSchedSession(t, svc, inst.Doc)
	twin := newSchedSession(t, svc, inst.Doc)

	qs := stepQueriesFor(m, inst.Doc, inst.Question, 0)
	req := &StepsRequest{Steps: make([]StepRequest, MaxSteps+1)}
	for i := range req.Steps {
		req.Steps[i] = StepRequest{Token: model.Token{Topic: 1, Payload: i % 32}, Queries: qs}
	}
	err := svc.StepStream(context.Background(), id, req, func(*StepResponse) error { return nil })
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversized StepStream err = %v, want ErrBadRequest", err)
	}

	// At the bound is fine, and nothing of the refused batch ran.
	ok := &StepsRequest{Steps: req.Steps[:MaxSteps]}
	n := 0
	err = svc.StepStream(context.Background(), id, ok, func(got *StepResponse) error {
		want, werr := svc.Step(twin, &ok.Steps[n])
		if werr != nil {
			return werr
		}
		defer want.Release()
		if derr := diffStep(fmt.Sprintf("step %d", n), got, want); derr != nil {
			return derr
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != MaxSteps {
		t.Fatalf("streamed %d steps, want %d", n, MaxSteps)
	}
}

// TestSchedulerSteadyStateAllocs guards the hot decode loop: once pools
// are warm, a scheduled step allocates no more than the serial direct
// path plus a small constant for admission.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	// A serial pool keeps the fan-out on the calling goroutine so the
	// measurement excludes worker-pool scheduling noise.
	svc, m := schedService(t, pool.Serial())
	mc := m.Config()
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 21, 300, 64, 32)
	directID := newSchedSession(t, svc, inst.Doc)
	schedID := newSchedSession(t, svc, inst.Doc)
	req := &StepRequest{Token: model.Token{Topic: 1, Payload: 1},
		Queries: stepQueriesFor(m, inst.Doc, inst.Question, 0)}

	// Warm both paths' pools.
	for i := 0; i < 8; i++ {
		r1, err := svc.stepDirect(directID, req, mc)
		if err != nil {
			t.Fatal(err)
		}
		r1.Release()
		r2, err := svc.Step(schedID, req)
		if err != nil {
			t.Fatal(err)
		}
		r2.Release()
	}

	direct := testing.AllocsPerRun(50, func() {
		resp, err := svc.stepDirect(directID, req, mc)
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	})
	sched := testing.AllocsPerRun(50, func() {
		resp, err := svc.Step(schedID, req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	})
	// The scheduled path may pay a handful of allocations for admission,
	// but must not allocate per layer, head, or queued byte beyond the
	// serial path.
	if sched > direct+6 {
		t.Fatalf("scheduled step allocates %.1f/op vs serial %.1f/op — the scheduler is allocating", sched, direct)
	}
}

// TestSchedulerShutdownDrains: closing the service refuses new steps while
// it waits, lets a streamed step already computing finish, fails the
// stream's unstarted steps and a unary step still waiting for its busy
// session with the typed shutdown error instead of hanging or dropping
// them, and returns only after both have come home.
func TestSchedulerShutdownDrains(t *testing.T) {
	svc, m := schedService(t, pool.Default(), WithQueueDepth(8))
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 23, 300, 64, 32)
	id := newSchedSession(t, svc, inst.Doc)
	heldID := newSchedSession(t, svc, inst.Doc)
	sch := svc.sched
	first := StepRequest{Token: model.Token{Topic: 1, Payload: 1},
		Queries: stepQueriesFor(m, inst.Doc, inst.Question, 0)}

	// A three-step stream whose first step is held in the lane, computing.
	held, releaseLane := holdLane(t, sch, 0)
	streamed := 0
	streamDone := make(chan error, 1)
	go func() {
		streamDone <- svc.StepStream(context.Background(), id, &StepsRequest{Steps: []StepRequest{first, first, first}},
			func(*StepResponse) error { streamed++; return nil })
	}()
	<-held

	// With heldID's session lock taken here, a unary step on it waits for
	// the session, counted as queued. The cleanup releases the lock if an
	// assertion fails first, so teardown does not hang.
	_, unlock, ok := svc.reg.Acquire(heldID)
	if !ok {
		t.Fatal("held session vanished")
	}
	var unlockOnce sync.Once
	release := func() { unlockOnce.Do(unlock) }
	t.Cleanup(release)
	waiting := make(chan error, 1)
	go func() {
		resp, err := svc.Step(heldID, &first)
		if err == nil {
			resp.Release()
		}
		waiting <- err
	}()
	waitUntil(t, "the unary step to queue", func() bool { return sch.Stats().QueueDepth == 3 })

	closed := make(chan struct{})
	go func() {
		svc.sched.Close()
		close(closed)
	}()
	waitUntil(t, "Close to begin", func() bool {
		sch.mu.Lock()
		defer sch.mu.Unlock()
		return sch.closed
	})
	// New steps are refused while Close waits, as unavailable.
	if _, err := svc.Step(id, &first); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("step during close: %v, want ErrUnavailable", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a streamed step was computing")
	case <-time.After(50 * time.Millisecond):
	}

	// The held step finishes and reaches the sink; the stream's two
	// unstarted steps fail with the typed unavailable error (NOT
	// overloaded — drain must be distinguishable from backpressure, or
	// load balancers retry against a dying replica).
	releaseLane()
	if err := <-streamDone; !errors.Is(err, ErrUnavailable) {
		t.Fatalf("stream across close: %v, want ErrUnavailable", err)
	}
	if streamed != 1 {
		t.Fatalf("stream delivered %d items across close, want 1", streamed)
	}
	sess, unlockID, ok := svc.reg.Acquire(id)
	if !ok {
		t.Fatal("streamed session vanished")
	}
	if got := sess.ContextLen(0); got != inst.Doc.Len()+1 {
		t.Fatalf("streamed session context %d, want %d: unstarted steps ran", got, inst.Doc.Len()+1)
	}
	unlockID()

	// Close still waits for the unary step waiting on heldID.
	select {
	case <-closed:
		t.Fatal("Close returned while a step waited for its session")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	// It had not started, so the drain failed it.
	if err := <-waiting; !errors.Is(err, ErrUnavailable) {
		t.Fatalf("step waiting for its session at close: err %v, want ErrUnavailable", err)
	}
	<-closed
	if d := sch.Stats().QueueDepth; d != 0 {
		t.Fatalf("after close: queue depth %d, want 0", d)
	}

	// Submits after close are refused outright, again as unavailable.
	if _, err := svc.Step(id, &first); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("step after close: %v, want ErrUnavailable", err)
	}

	// Service.Close is idempotent and concurrent-caller-safe: the signal
	// path, a serve-error path, and two transports can all reach it.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := svc.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	wg.Wait()
	svc.sched.Close() // double scheduler close is a no-op too
}

// TestDirectStepQueuesBehindStream: a unary step on a session whose
// streamed batch is held in the stream lane waits behind the batch and
// runs after it, bitwise equal to a serial step, while unary steps on two
// idle sessions run on their callers and complete with the lane still
// held. Steps that start at once never count toward the queue depth.
func TestDirectStepQueuesBehindStream(t *testing.T) {
	svc, m := schedService(t, pool.Default())
	mc := m.Config()
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 29, 300, 64, 32)
	id := newSchedSession(t, svc, inst.Doc)
	twin := newSchedSession(t, svc, inst.Doc)
	others := []int64{newSchedSession(t, svc, inst.Doc), newSchedSession(t, svc, inst.Doc)}
	sch := svc.sched
	held, release := holdLane(t, sch, 1)

	const batch = 2
	steps := make([]StepRequest, batch+1)
	for i := range steps {
		steps[i] = StepRequest{Token: model.Token{Topic: 1, Payload: i + 1},
			Queries: stepQueriesFor(m, inst.Doc, inst.Question, i)}
	}
	// Serial reference on the twin: the batch's steps, then the unary one.
	want := make([]*StepResponse, len(steps))
	for i := range steps {
		resp, err := svc.stepDirect(twin, &steps[i], mc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = cloneStep(resp)
		resp.Release()
	}

	// The stream's first step runs and reaches the sink; its second then
	// holds in the lane.
	streamDone := make(chan error, 1)
	go func() {
		n := 0
		streamDone <- svc.StepStream(context.Background(), id, &StepsRequest{Steps: steps[:batch]},
			func(resp *StepResponse) error {
				if err := diffStep(fmt.Sprintf("stream step %d", n), resp, want[n]); err != nil {
					return err
				}
				n++
				return nil
			})
	}()
	select {
	case <-held:
	case err := <-streamDone:
		t.Fatalf("stream ended before its second step: %v", err)
	}

	// A unary step on the streaming session waits behind the batch.
	unary := make(chan error, 1)
	go func() {
		resp, err := svc.Step(id, &steps[batch])
		if err == nil {
			err = diffStep("unary step behind the stream", resp, want[batch])
			resp.Release()
		}
		unary <- err
	}()
	waitUntil(t, "the unary step to queue", func() bool { return sch.Stats().QueueDepth == 1 })

	// Unary steps on two idle sessions run on their callers, concurrently,
	// while the lane is held.
	direct := make(chan error, len(others))
	for _, oid := range others {
		go func(oid int64) {
			resp, err := svc.Step(oid, &steps[0])
			if err == nil {
				err = diffStep(fmt.Sprintf("direct step on session %d", oid), resp, want[0])
				resp.Release()
			}
			direct <- err
		}(oid)
	}
	for range others {
		select {
		case err := <-direct:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a unary step on an idle session waited on the held lane")
		}
	}
	st := sch.Stats()
	if st.QueueDepth != 1 || st.Items != 1+int64(len(others)) {
		t.Fatalf("while held: queue depth %d, items %d; want %d, %d", st.QueueDepth, st.Items, 1, 1+len(others))
	}
	select {
	case err := <-unary:
		t.Fatalf("unary step finished ahead of its session's stream: %v", err)
	default:
	}

	release()
	if err := <-streamDone; err != nil {
		t.Fatal(err)
	}
	if err := <-unary; err != nil {
		t.Fatal(err)
	}
	st = sch.Stats()
	if st.Items != int64(len(steps)+len(others)) || st.Admitted != st.Items || st.QueueDepth != 0 {
		t.Fatalf("scheduler counters = %+v", st)
	}
}

// TestStreamLane pins the stream lane: while one streamed step is held
// inside it, a unary step on a second session completes, a stream on a
// third session delivers nothing, and a unary step on the held session
// waits. After release every output is bitwise equal to serial steps.
func TestStreamLane(t *testing.T) {
	svc, m := schedService(t, pool.Default())
	mc := m.Config()
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 37, 300, 64, 32)
	heldID := newSchedSession(t, svc, inst.Doc)
	unaryID := newSchedSession(t, svc, inst.Doc)
	streamID := newSchedSession(t, svc, inst.Doc)
	twin := newSchedSession(t, svc, inst.Doc)
	sch := svc.sched
	held, release := holdLane(t, sch, 0)

	steps := make([]StepRequest, 3)
	for i := range steps {
		steps[i] = StepRequest{Token: model.Token{Topic: 1, Payload: i + 1},
			Queries: stepQueriesFor(m, inst.Doc, inst.Question, i)}
	}
	want := make([]*StepResponse, len(steps))
	for i := range steps {
		resp, err := svc.stepDirect(twin, &steps[i], mc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = cloneStep(resp)
		resp.Release()
	}
	stream := func(id int64, arrived chan<- int) error {
		n := 0
		return svc.StepStream(context.Background(), id, &StepsRequest{Steps: steps[:2]},
			func(resp *StepResponse) error {
				if err := diffStep(fmt.Sprintf("session %d stream step %d", id, n), resp, want[n]); err != nil {
					return err
				}
				if arrived != nil {
					arrived <- n
				}
				n++
				return nil
			})
	}

	heldDone := make(chan error, 1)
	go func() { heldDone <- stream(heldID, nil) }()
	<-held

	arrived := make(chan int, 2)
	otherDone := make(chan error, 1)
	go func() { otherDone <- stream(streamID, arrived) }()

	// A unary step on a second session does not take the lane.
	resp, err := svc.Step(unaryID, &steps[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := diffStep("unary step beside the held lane", resp, want[0]); err != nil {
		t.Fatal(err)
	}
	resp.Release()

	// The third session's stream waits for the lane.
	select {
	case i := <-arrived:
		t.Fatalf("stream on a third session delivered item %d while the lane was held", i)
	case err := <-otherDone:
		t.Fatalf("stream on a third session finished while the lane was held: %v", err)
	case <-time.After(200 * time.Millisecond):
	}

	// A unary step on the held session waits for the session.
	unary := make(chan error, 1)
	go func() {
		resp, err := svc.Step(heldID, &steps[2])
		if err == nil {
			err = diffStep("unary step behind the held stream", resp, want[2])
			resp.Release()
		}
		unary <- err
	}()
	waitUntil(t, "the unary step to queue", func() bool { return sch.Stats().QueueDepth == 3 })
	select {
	case err := <-unary:
		t.Fatalf("unary step on the held session finished while its stream was held: %v", err)
	default:
	}

	release()
	for _, ch := range []chan error{heldDone, otherDone, unary} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	if len(arrived) != 2 {
		t.Fatalf("third session's stream delivered %d items, want 2", len(arrived))
	}
	if st := sch.Stats(); st.Items != 6 || st.QueueDepth != 0 {
		t.Fatalf("scheduler counters = %+v", st)
	}
}
