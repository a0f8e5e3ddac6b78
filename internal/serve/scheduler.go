package serve

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/metrics"
)

// The decode scheduler and the session table. Every step, unary or
// streamed, runs on the goroutine that submitted it, under its session's
// request lock, so a session's steps run one at a time and outputs are
// bitwise-identical to serial steps on each session. Around that the
// Scheduler keeps four things.
//
// The session table: one map from ID to entry and a plain ID counter,
// both guarded by mu. Each entry carries the request lock every call on
// the session takes (prefill, step, store, close). Under mu that lock is
// only tried, never waited on: a request waits for a busy session after
// mu is released, so a slow request never stalls the table.
//
// Admission: queueCap bounds the steps admitted but not yet started — a
// stream's remaining steps, and any unary step waiting for its busy
// session. A submit that would exceed the bound (a stream counts every
// step) is rejected whole with the typed overloaded error before anything
// runs. A unary step that finds its session idle starts at once and never
// counts toward the bound, but the bound is checked first, so a full
// queue rejects every new step. Admission, session lookup and the
// busy-session count are one critical section under mu.
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

	mu       sync.Mutex
	sessions map[int64]*sessionEntry
	nextID   int64
	queued   int // steps admitted, not yet started
	closed   bool
	admitted int64
	rejected int64

	inflight sync.WaitGroup // admitted unary steps and streams
	steps    atomic.Int64   // steps run

	lane      sync.Mutex // held while a streamed step computes
	laneSteps int        // streamed steps run, guarded by lane
	laneHook  func(step int)
}

// sessionEntry pairs a session with its request lock. closed is set under
// the entry's mu once it has left the table: a request that looked the
// entry up before removal but locked it after must not serve the closed
// session.
type sessionEntry struct {
	mu     sync.Mutex
	sess   *core.Session
	closed bool
}

// wait takes e's lock, blocking while another request holds it, and
// reports false (lock released) if e was closed meanwhile.
func (e *sessionEntry) wait() bool {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return false
	}
	return true
}

// close marks e closed once every request in flight on it has let go,
// and returns its session for closing.
func (e *sessionEntry) close() *core.Session {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	return e.sess
}

// errShutdown is what unstarted work fails with when the scheduler closes.
// It is KindUnavailable (503/UNAVAILABLE), not KindOverloaded (429): drain
// means "this replica is going away — resubmit elsewhere", where the
// overloaded rejection means "back off and retry here". A load balancer
// that conflated the two would keep hammering a dying replica.
var errShutdown = &Error{Kind: KindUnavailable, Message: "service shutting down"}

// newScheduler returns the scheduler with an empty session table;
// queueCap <= 0 picks DefaultQueueDepth.
func newScheduler(svc *Service, queueCap int) *Scheduler {
	if queueCap <= 0 {
		queueCap = DefaultQueueDepth
	}
	return &Scheduler{svc: svc, queueCap: queueCap, sessions: make(map[int64]*sessionEntry)}
}

// Stats snapshots the scheduler counters.
func (sch *Scheduler) Stats() metrics.SchedSnapshot {
	steps := sch.steps.Load()
	sch.mu.Lock()
	defer sch.mu.Unlock()
	return metrics.SchedSnapshot{QueueCap: sch.queueCap, Admitted: sch.admitted, Rejected: sch.rejected,
		Waves: steps, Items: steps, MaxWave: min(steps, 1), QueueDepth: int64(sch.queued)}
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

// add registers sess and returns its ID, unique for the table's lifetime.
func (sch *Scheduler) add(sess *core.Session) int64 {
	sch.mu.Lock()
	defer sch.mu.Unlock()
	sch.nextID++
	sch.sessions[sch.nextID] = &sessionEntry{sess: sess}
	return sch.nextID
}

// acquire looks session id up and locks it, waiting while it is busy. It
// returns the session, a release function to call exactly once when the
// request finishes, and whether the session exists.
func (sch *Scheduler) acquire(id int64) (*core.Session, func(), bool) {
	sch.mu.Lock()
	e := sch.sessions[id]
	held := e != nil && e.mu.TryLock()
	sch.mu.Unlock()
	if e == nil || !held && !e.wait() {
		return nil, nil, false
	}
	return e.sess, e.mu.Unlock, true
}

// remove takes session id out of the table and returns it for closing
// once every request in flight on it has finished: leaving the table
// first cuts off new lookups.
func (sch *Scheduler) remove(id int64) (*core.Session, bool) {
	sch.mu.Lock()
	e, ok := sch.sessions[id]
	delete(sch.sessions, id)
	sch.mu.Unlock()
	if !ok {
		return nil, false
	}
	return e.close(), true
}

// openSessions returns the number of sessions in the table.
func (sch *Scheduler) openSessions() int {
	sch.mu.Lock()
	defer sch.mu.Unlock()
	return len(sch.sessions)
}

// drain removes and returns every session, waiting out the requests in
// flight on each as remove does.
func (sch *Scheduler) drain() []*core.Session {
	sch.mu.Lock()
	entries := sch.sessions
	sch.sessions = make(map[int64]*sessionEntry)
	sch.mu.Unlock()
	out := make([]*core.Session, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.close())
	}
	return out
}

// admit lets n steps on session id in, in one critical section: it
// enforces the admission bound, counts the steps admitted, looks the
// session up and tries its lock, and counts as queued a stream's every
// step or a unary step whose session is busy. On success it returns the
// entry, held if its lock was free, and the caller is in flight until it
// calls inflight.Done.
func (sch *Scheduler) admit(id int64, n int, stream bool) (e *sessionEntry, held bool, err error) {
	sch.mu.Lock()
	defer sch.mu.Unlock()
	if sch.closed {
		return nil, false, errShutdown
	}
	if sch.queued+n > sch.queueCap {
		sch.rejected += int64(n)
		return nil, false, Overloadedf("decode queue full: %d steps queued, cap %d", sch.queued, sch.queueCap)
	}
	sch.admitted += int64(n)
	if e = sch.sessions[id]; e == nil {
		return nil, false, NotFoundf("no session %d", id)
	}
	held = e.mu.TryLock()
	if stream {
		sch.queued += n
	} else if !held {
		sch.queued++
	}
	sch.inflight.Add(1)
	return e, held, nil
}

// queue adds n admitted steps to the queued count (n < 0 removes them).
func (sch *Scheduler) queue(n int) {
	sch.mu.Lock()
	sch.queued += n
	sch.mu.Unlock()
}

// start moves one queued step to started, failing it if the scheduler
// has closed meanwhile.
func (sch *Scheduler) start() *Error {
	sch.mu.Lock()
	defer sch.mu.Unlock()
	sch.queued--
	if sch.closed {
		return errShutdown
	}
	return nil
}

// enter admits one unary step on session id and returns its entry with
// the lock held. On a busy session it waits for the lock outside mu,
// counted as queued. On success the caller must unlock the entry and
// call inflight.Done.
func (sch *Scheduler) enter(id int64) (*sessionEntry, error) {
	e, held, err := sch.admit(id, 1, false)
	if err != nil || held {
		return e, err
	}
	held = e.wait()
	if err := sch.start(); err != nil || !held {
		if held {
			e.mu.Unlock()
		}
		sch.inflight.Done()
		if err != nil {
			return nil, err
		}
		return nil, NotFoundf("no session %d", id)
	}
	return e, nil
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
	e, err := sch.enter(id)
	if err != nil {
		return nil, err
	}
	defer sch.inflight.Done()
	defer e.mu.Unlock()
	if verr := checkSpanStep(e.sess, req); verr != nil {
		return nil, verr
	}
	sch.steps.Add(1)
	sc := stepScratchPool.Get().(*stepScratch)
	resp := sch.decode(e.sess, req, sc)
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
	e, held, err := sch.admit(id, len(steps), true)
	if err != nil {
		return err
	}
	defer sch.inflight.Done()
	left := len(steps)
	defer func() { sch.queue(-left) }()
	if !held && !e.wait() {
		return NotFoundf("no session %d", id)
	}
	defer e.mu.Unlock()
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
		if verr := checkSpanStep(e.sess, req); verr != nil {
			return verr
		}
		if err := sink(sch.laneStep(e.sess, req, sc)); err != nil {
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
	sch.steps.Add(1)
	return sch.decode(sess, req, sc)
}
