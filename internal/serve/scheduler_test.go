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

// gateWave0 holds sch's dispatcher after its first wave until gate or
// stop closes. A test closes gate to release the dispatcher; stop, closed
// at test end, releases a hold that a failed assertion left behind, so
// teardown (which waits for the dispatcher) fails fast instead of hanging.
func gateWave0(sch *Scheduler, gate, stop <-chan struct{}) {
	sch.waveGate = func(wave int) {
		if wave == 0 {
			select {
			case <-gate:
			case <-stop:
			}
		}
	}
}

// gateWave0Cleanup is gateWave0 with stop closed by a t.Cleanup. Cleanups
// run last-registered first, so it runs before schedService's teardown.
func gateWave0Cleanup(t *testing.T, sch *Scheduler) chan struct{} {
	gate, stop := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(stop) })
	gateWave0(sch, gate, stop)
	return gate
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

// inFlight reports whether sch has session id registered as executing.
func (sch *Scheduler) inFlight(id int64) bool {
	sch.mu.Lock()
	defer sch.mu.Unlock()
	ss := sch.sessions[id]
	return ss != nil && ss.inFlight
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
// wave around it.
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
// continuous-batching scheduler: N sessions hammering Step concurrently
// through shared decode waves must produce, per session and step, outputs
// bitwise-identical to the serial direct path, with strictly FIFO
// per-session context growth. Run under -race this is also the
// scheduler's data-race gate.
func TestSchedulerBitwiseIdentityHammer(t *testing.T) {
	svc, m := schedService(t, pool.Default(), WithWaveSize(3))
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
	// the scheduler; waves mix the sessions.
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
	if st.MaxWave > 3 {
		t.Fatalf("wave of %d items exceeds configured size 3", st.MaxWave)
	}
}

// TestStepStreamOverlap pins the streaming contract with a deterministic
// wave boundary: the first step's response reaches the sink while the
// scheduler has executed exactly one of the batch's three steps — i.e.
// streaming delivers results strictly before the batch completes.
func TestStepStreamOverlap(t *testing.T) {
	svc, m := schedService(t, pool.Default(), WithWaveSize(2))
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 7, 300, 64, 32)
	id := newSchedSession(t, svc, inst.Doc)

	gate := gateWave0Cleanup(t, svc.sched)

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
	close(gate) // release the remaining waves

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
// wire: with the dispatcher gated after the first wave, the client reads
// the first binary frame off the chunked response while two of the
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
	srv := NewServer(db, WithWaveSize(2))
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
		db.Close()
	}()
	svc := srv.Service()

	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 11, 300, 64, 32)
	id := newSchedSession(t, svc, inst.Doc)

	// The server tears down in a defer, so stop must close in a defer
	// registered after it (defers run last-registered first).
	gate, stop := make(chan struct{}), make(chan struct{})
	defer close(stop)
	gateWave0(svc.sched, gate, stop)
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
			// The first frame crossed the wire while the dispatcher is
			// still gated: the batch's later steps have not run.
			if items := svc.sched.Stats().Items; items != 1 {
				t.Fatalf("first frame arrived after %d executed steps, want 1", items)
			}
			released = true
			close(gate)
		}
	}
	if got != steps || !released {
		t.Fatalf("received %d frames (released=%v), want %d", got, released, steps)
	}
}

// TestSchedulerBackpressure fills the bounded admission queue while the
// dispatcher is gated and checks the typed overloaded rejection: singles
// and whole batches are refused atomically with ErrOverloaded (HTTP 429),
// and nothing partially enqueues.
func TestSchedulerBackpressure(t *testing.T) {
	svc, m := schedService(t, pool.Default(), WithWaveSize(1), WithQueueDepth(2))
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 5, 300, 64, 32)
	id := newSchedSession(t, svc, inst.Doc)
	mkStep := func(n int) StepRequest {
		return StepRequest{Token: model.Token{Topic: 1, Payload: n + 1},
			Queries: stepQueriesFor(m, inst.Doc, inst.Question, n)}
	}

	gate := gateWave0Cleanup(t, svc.sched)

	// Wave 0 executes immediately; afterwards the dispatcher blocks in the
	// gate and everything below queues without being drained. The first
	// step goes through SubmitBatch because a unary Step on an idle
	// session runs on its caller and never becomes wave 0.
	first := mkStep(0)
	ch0 := make(chan *stepJob, 1)
	var canceled0 atomic.Bool
	if serr := svc.sched.SubmitBatch(id, []StepRequest{first}, ch0, &canceled0); serr != nil {
		t.Fatal(serr)
	}
	if j := <-ch0; j.err != nil {
		t.Fatal(j.err)
	} else {
		j.resp.Release()
		putStepJob(j)
	}

	// Fill the queue to its cap of 2 with a direct batch submit (admission
	// is synchronous even though execution is gated).
	queued := []StepRequest{mkStep(1), mkStep(2)}
	ch := make(chan *stepJob, len(queued))
	var canceled atomic.Bool
	if serr := svc.sched.SubmitBatch(id, queued, ch, &canceled); serr != nil {
		t.Fatal(serr)
	}
	if d := svc.sched.Stats().QueueDepth; d != 2 {
		t.Fatalf("queue depth = %d, want 2", d)
	}

	// A single step over a full queue: typed overloaded error, 429.
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

	close(gate)
	for range queued {
		j := <-ch
		if j.err != nil {
			t.Fatal(j.err)
		}
		j.resp.Release()
		putStepJob(j)
	}

	st := svc.sched.Stats()
	if st.Admitted != 3 || st.Rejected != 3 || st.Items != 3 {
		t.Fatalf("scheduler counters = %+v", st)
	}
}

// TestStepStreamSinkErrorAbandonsTail: a failing sink cancels the rest of
// the batch — the remaining steps are drained without decoding, and the
// session's context shows only the executed prefix.
func TestStepStreamSinkErrorAbandonsTail(t *testing.T) {
	svc, m := schedService(t, pool.Default(), WithWaveSize(1))
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 9, 300, 64, 32)
	id := newSchedSession(t, svc, inst.Doc)

	// Gate the dispatcher after the first wave so cancellation is visible
	// before any later step can decode.
	gate := gateWave0Cleanup(t, svc.sched)

	req := &StepsRequest{Steps: make([]StepRequest, 4)}
	for i := range req.Steps {
		req.Steps[i] = StepRequest{Token: model.Token{Topic: 1, Payload: i + 1},
			Queries: stepQueriesFor(m, inst.Doc, inst.Question, i)}
	}
	sinkErr := errors.New("sink full")
	calls := 0
	sinkDone := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- svc.StepStream(context.Background(), id, req, func(*StepResponse) error {
			calls++
			close(sinkDone)
			return sinkErr
		})
	}()
	<-sinkDone
	// The collector sets the cancel flag immediately after the sink
	// returns; the pause dwarfs those two instructions before the gated
	// dispatcher is allowed to look at the flag.
	time.Sleep(100 * time.Millisecond)
	close(gate)

	if err := <-done; !errors.Is(err, sinkErr) {
		t.Fatalf("stream err = %v, want the sink error", err)
	}
	if calls != 1 {
		t.Fatalf("sink called %d times after failing, want 1", calls)
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
// path plus a small constant for the wave machinery.
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
	// The scheduled path may pay a handful of allocations for channel ops
	// and wave bookkeeping, but must not allocate per layer, head, or
	// queued byte beyond the serial path.
	if sched > direct+6 {
		t.Fatalf("scheduled step allocates %.1f/op vs serial %.1f/op — wave loop is allocating", sched, direct)
	}
}

// TestSchedulerShutdownDrains: closing the service fails queued work with
// the typed shutdown error instead of hanging or dropping it, refuses new
// steps while it waits, and returns only after a direct step running on
// its caller has finished — without that step re-queuing drained work.
func TestSchedulerShutdownDrains(t *testing.T) {
	svc, m := schedService(t, pool.Default(), WithWaveSize(1), WithQueueDepth(8))
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 23, 300, 64, 32)
	id := newSchedSession(t, svc, inst.Doc)
	heldID := newSchedSession(t, svc, inst.Doc)
	sch := svc.sched

	gate := gateWave0Cleanup(t, svc.sched)
	first := StepRequest{Token: model.Token{Topic: 1, Payload: 1},
		Queries: stepQueriesFor(m, inst.Doc, inst.Question, 0)}
	if resp, err := svc.Step(id, &first); err != nil {
		t.Fatal(err)
	} else {
		resp.Release()
	}

	// Queue two steps behind the gate, then close while they wait.
	ch := make(chan *stepJob, 2)
	var canceled atomic.Bool
	if serr := svc.sched.SubmitBatch(id, []StepRequest{first, first}, ch, &canceled); serr != nil {
		t.Fatal(serr)
	}
	// Hold a direct step mid-flight: with heldID's session lock taken
	// here, a unary step on it registers as in flight and blocks in
	// Acquire. One more step queues behind it. The cleanup releases the
	// lock if an assertion fails first, so teardown does not hang.
	_, unlock, ok := svc.reg.Acquire(heldID)
	if !ok {
		t.Fatal("held session vanished")
	}
	var unlockOnce sync.Once
	release := func() { unlockOnce.Do(unlock) }
	t.Cleanup(release)
	direct := make(chan error, 1)
	go func() {
		resp, err := svc.Step(heldID, &first)
		if err == nil {
			if resp.ContextLen != inst.Doc.Len()+1 {
				err = fmt.Errorf("direct step context %d, want %d", resp.ContextLen, inst.Doc.Len()+1)
			}
			resp.Release()
		}
		direct <- err
	}()
	waitUntil(t, "the direct step to register", func() bool { return sch.inFlight(heldID) })
	behind := make(chan *stepJob, 1)
	var canceledBehind atomic.Bool
	if serr := sch.SubmitBatch(heldID, []StepRequest{first}, behind, &canceledBehind); serr != nil {
		t.Fatal(serr)
	}

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
	close(gate)
	for i := 0; i < 2; i++ {
		j := <-ch
		// Either the dispatcher squeezed the job into a final wave before
		// observing close, or it drained with the typed unavailable error
		// (NOT overloaded — drain must be distinguishable from
		// backpressure, or load balancers retry against a dying replica).
		if j.err != nil && !errors.Is(j.err, ErrUnavailable) {
			t.Fatalf("drained job err = %v", j.err)
		}
		if j.resp != nil {
			j.resp.Release()
		}
		putStepJob(j)
	}
	// The step queued behind the held direct step never ran: the drain
	// failed it.
	if j := <-behind; !errors.Is(j.err, ErrUnavailable) {
		t.Fatalf("step queued behind the direct step: err %v, want ErrUnavailable", j.err)
	} else {
		putStepJob(j)
	}
	// The dispatcher has exited, but Close still waits for the direct step.
	<-sch.done
	select {
	case <-closed:
		t.Fatal("Close returned while a direct step was running")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-direct; err != nil {
		t.Fatalf("direct step in flight at close: %v", err)
	}
	<-closed
	// The finished direct step re-queued nothing onto the stopped
	// scheduler.
	sch.mu.Lock()
	left, ready := len(sch.sessions), len(sch.ready)
	sch.mu.Unlock()
	if left != 0 || ready != 0 {
		t.Fatalf("after close: %d sessions, %d ready, want none", left, ready)
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
// streamed batch is held at the wave gate queues behind the batch and
// runs after it, bitwise equal to a serial step, while unary steps on two
// idle sessions run on their callers and complete with the dispatcher
// still gated. Direct steps never count toward the queue depth.
func TestDirectStepQueuesBehindStream(t *testing.T) {
	svc, m := schedService(t, pool.Default(), WithWaveSize(1))
	mc := m.Config()
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 29, 300, 64, 32)
	id := newSchedSession(t, svc, inst.Doc)
	twin := newSchedSession(t, svc, inst.Doc)
	others := []int64{newSchedSession(t, svc, inst.Doc), newSchedSession(t, svc, inst.Doc)}
	sch := svc.sched
	gate := gateWave0Cleanup(t, sch)

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

	// The stream's first step runs as wave 0; the dispatcher then holds
	// in the gate with the second step queued.
	first := make(chan struct{})
	streamDone := make(chan error, 1)
	go func() {
		n := 0
		streamDone <- svc.StepStream(context.Background(), id, &StepsRequest{Steps: steps[:batch]},
			func(resp *StepResponse) error {
				if err := diffStep(fmt.Sprintf("stream step %d", n), resp, want[n]); err != nil {
					return err
				}
				if n == 0 {
					close(first)
				}
				n++
				return nil
			})
	}()
	select {
	case <-first:
	case err := <-streamDone:
		t.Fatalf("stream ended before its first item: %v", err)
	}

	// A unary step on the streaming session queues behind the batch.
	unary := make(chan error, 1)
	go func() {
		resp, err := svc.Step(id, &steps[batch])
		if err == nil {
			err = diffStep("unary step behind the stream", resp, want[batch])
			resp.Release()
		}
		unary <- err
	}()
	waitUntil(t, "the unary step to queue", func() bool { return sch.Stats().QueueDepth == batch })

	// Unary steps on two idle sessions run on their callers, concurrently,
	// while the dispatcher is gated.
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
			t.Fatal("a unary step on an idle session waited on the gated dispatcher")
		}
	}
	st := sch.Stats()
	if st.QueueDepth != batch || st.Items != 1+int64(len(others)) {
		t.Fatalf("while gated: queue depth %d, items %d; want %d, %d", st.QueueDepth, st.Items, batch, 1+len(others))
	}
	select {
	case err := <-unary:
		t.Fatalf("unary step finished ahead of its session's stream: %v", err)
	default:
	}

	close(gate)
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
