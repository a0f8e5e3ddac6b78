package serve

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
)

// The decode scheduler. Every step, unary or streamed, runs on the
// goroutine that submitted it, under its session's registry lock, so a
// session's steps run one at a time and outputs are bitwise-identical to
// serial steps on each session. Around that the Scheduler keeps three
// things.
//
// Admission: queueCap bounds the steps admitted but not yet started — a
// stream's remaining steps, and any unary step waiting for its busy
// session. A submit that would exceed the bound (a stream counts every
// step) is rejected whole with the typed overloaded error before anything
// runs. A unary step that finds its session idle starts at once and never
// counts toward the bound, but the bound is checked first, so a full
// queue rejects every new step.
//
// The stream lane: a streamed batch holds its session for the whole batch
// and computes each step under lane, a scheduler-wide mutex, so at most
// one streamed step computes at a time and concurrent streams cannot
// crowd other sessions' creates and prefills off the worker pool. Unary
// steps skip the lane. The sink runs outside it, so a slow consumer
// stalls only its own stream. Locks are always taken session first, then
// lane.
//
// Shutdown: Close refuses new steps and waits for the steps in flight. A
// stream checks for close and for its context's end before each step;
// steps that had not started fail with errShutdown, as does a unary step
// still waiting for its session.
type Scheduler struct {
	svc      *Service
	queueCap int

	mu     sync.Mutex
	queued int // steps admitted, not yet started
	closed bool

	inflight sync.WaitGroup // admitted unary steps and streams

	lane      sync.Mutex // held while a streamed step computes
	laneSteps int        // streamed steps run, guarded by lane
	laneHook  func(step int)

	sc metrics.SchedCounters
}

// errShutdown is what unstarted work fails with when the scheduler closes.
// It is KindUnavailable (503/UNAVAILABLE), not KindOverloaded (429): drain
// means "this replica is going away — resubmit elsewhere", where the
// overloaded rejection means "back off and retry here". A load balancer
// that conflated the two would keep hammering a dying replica.
var errShutdown = &Error{Kind: KindUnavailable, Message: "service shutting down"}

// newScheduler returns the scheduler; queueCap <= 0 picks
// DefaultQueueDepth.
func newScheduler(svc *Service, queueCap int) *Scheduler {
	if queueCap <= 0 {
		queueCap = DefaultQueueDepth
	}
	return &Scheduler{svc: svc, queueCap: queueCap}
}

// Stats snapshots the scheduler counters.
func (sch *Scheduler) Stats() metrics.SchedSnapshot {
	s := sch.sc.Snapshot()
	s.QueueCap = sch.queueCap
	return s
}

// SetLaneHook installs fn, which every streamed step calls while it holds
// the stream lane, before it computes; step counts the streamed steps run
// so far, from 0. Holding the hook holds the lane, which makes a stream's
// progress deterministic for streaming-overlap tests (the
// transport-conformance suite holds step N+1 until the client has read
// item N off the wire). Test instrumentation only: install before any
// traffic reaches the scheduler.
func (sch *Scheduler) SetLaneHook(fn func(step int)) { sch.laneHook = fn }

// Close refuses new steps and returns once every admitted step and stream
// has finished. Steps already computing complete normally; a stream stops
// before its next step. Idempotent and safe for concurrent callers.
func (sch *Scheduler) Close() {
	sch.mu.Lock()
	sch.closed = true
	sch.mu.Unlock()
	sch.inflight.Wait()
}

// admit enforces the admission bound for n more steps, counts them as
// admitted and queues wait of them. On success the caller is in flight
// until it calls inflight.Done.
func (sch *Scheduler) admit(n, wait int) *Error {
	sch.mu.Lock()
	defer sch.mu.Unlock()
	if sch.closed {
		return errShutdown
	}
	if sch.queued+n > sch.queueCap {
		sch.sc.Reject(n)
		return Overloadedf("decode queue full: %d steps queued, cap %d", sch.queued, sch.queueCap)
	}
	sch.sc.Admit(n)
	sch.queueLocked(wait)
	sch.inflight.Add(1)
	return nil
}

func (sch *Scheduler) queueLocked(n int) {
	sch.queued += n
	sch.sc.SetQueueDepth(sch.queued)
}

// queue adds n admitted steps to the queued count (n < 0 removes them).
func (sch *Scheduler) queue(n int) {
	sch.mu.Lock()
	sch.queueLocked(n)
	sch.mu.Unlock()
}

// queueOne counts a unary step that found its session busy.
func (sch *Scheduler) queueOne() { sch.queue(1) }

// start moves one queued step to started, failing it if the scheduler
// has closed meanwhile.
func (sch *Scheduler) start() *Error {
	sch.mu.Lock()
	defer sch.mu.Unlock()
	sch.queueLocked(-1)
	if sch.closed {
		return errShutdown
	}
	return nil
}

// decode runs req on sess, which the caller holds, into sc's result
// block and returns the wire response over it: StepInto, or
// AttentionAllLayersInto for an attend-only step.
func (sch *Scheduler) decode(sess *core.Session, req *StepRequest, sc *stepScratch) *StepResponse {
	mc := sch.svc.db.Model().Config()
	out := sc.grab(mc.Layers, mc.QHeads)
	if req.AttendOnly {
		sess.AttentionAllLayersInto(req.Queries, out)
	} else {
		sess.StepInto(req.Token, req.Queries, out)
	}
	return stepRespFromResults(out, sess.ContextLen(0))
}

// StepOne runs a single validated step on the calling goroutine and
// returns the wire response exactly as a serial step on the session
// would. On a busy session it waits for the session's lock, counted as
// queued.
func (sch *Scheduler) StepOne(id int64, req *StepRequest) (*StepResponse, error) {
	if err := sch.admit(1, 0); err != nil {
		return nil, err
	}
	defer sch.inflight.Done()
	sess, release, waited, ok := sch.svc.reg.acquire(id, sch.queueOne)
	if waited {
		if err := sch.start(); err != nil {
			if ok {
				release()
			}
			return nil, err
		}
	}
	if !ok {
		return nil, NotFoundf("no session %d", id)
	}
	defer release()
	if verr := checkSpanStep(sess, req); verr != nil {
		return nil, verr
	}
	sch.sc.ObserveStep()
	sc := stepScratchPool.Get().(*stepScratch)
	resp := sch.decode(sess, req, sc)
	resp.done = func() { stepScratchPool.Put(sc) }
	return resp, nil
}

// StepStream runs a batch of validated steps in order on session id,
// holding the session for the whole batch. Each step computes under the
// stream lane and its response goes to sink outside it, valid only for
// the duration of the call. The batch stops at the first step error, sink
// error, end of ctx or scheduler close, and returns that error; the steps
// after it never run.
func (sch *Scheduler) StepStream(ctx context.Context, id int64, steps []StepRequest, sink func(*StepResponse) error) error {
	if err := sch.admit(len(steps), len(steps)); err != nil {
		return err
	}
	defer sch.inflight.Done()
	left := len(steps)
	defer func() { sch.queue(-left) }()

	sess, release, ok := sch.svc.reg.Acquire(id)
	if !ok {
		return NotFoundf("no session %d", id)
	}
	defer release()
	sc := stepScratchPool.Get().(*stepScratch)
	defer stepScratchPool.Put(sc)
	for i := range steps {
		if err := ctx.Err(); err != nil {
			return err
		}
		left--
		if err := sch.start(); err != nil {
			return err
		}
		req := &steps[i]
		if verr := checkSpanStep(sess, req); verr != nil {
			return verr
		}
		if err := sink(sch.laneStep(sess, req, sc)); err != nil {
			return err
		}
	}
	return nil
}

// laneStep decodes one streamed step under the stream lane.
func (sch *Scheduler) laneStep(sess *core.Session, req *StepRequest, sc *stepScratch) *StepResponse {
	sch.lane.Lock()
	defer sch.lane.Unlock()
	step := sch.laneSteps
	sch.laneSteps++
	if sch.laneHook != nil {
		sch.laneHook(step)
	}
	sch.sc.ObserveStep()
	return sch.decode(sess, req, sc)
}
