package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/metrics"
)

// The decode scheduler. It admits Step work from every session and keeps
// each session's steps in FIFO order. A unary step whose session has
// nothing queued or in flight is a direct step: it runs on its caller's
// goroutine, with no dispatcher hop, and concurrent direct steps on
// different sessions overlap on the worker pool. Everything else — every
// streamed batch, and any step that arrives while its session has work
// ahead of it — queues and runs in shared decode waves: up to waveSize
// sessions per wave, one step each, executed as a single core.StepWave
// fan-out by the dispatcher goroutine.
//
// Ordering: a direct step keeps its session registered as in flight, so
// a step or stream arriving meanwhile queues behind it; when it finishes
// it hands the session to the ready list. Steps of one session never
// share a wave (a wave carries at most the head of each session's
// queue). Every step runs under the session's lock exactly like a serial
// step, so outputs are bitwise-identical to serial steps on each session.
// Fairness: the ready list is a FIFO of sessions, so a session streaming
// thousands of steps cannot starve a session submitting its first.
//
// Backpressure: admission is bounded by queueCap queued steps. A submit
// that would exceed the bound — for a batch, counting every step in it —
// is rejected whole with the typed overloaded error; nothing is partially
// enqueued. The bound is checked before a step is sent down the direct
// path, so a full queue rejects every new step, but a direct step never
// counts toward the queue depth. It is counted as admitted and as a wave
// of one.
type Scheduler struct {
	svc      *Service
	waveSize int
	queueCap int

	mu       sync.Mutex
	cond     *sync.Cond // signalled when ready work appears or Close begins
	sessions map[int64]*schedSession
	ready    []*schedSession // FIFO of sessions with a dispatchable head job
	queued   int             // steps queued, not yet dispatched
	closed   bool

	direct sync.WaitGroup // direct steps running on their callers

	done chan struct{} // closed when the dispatcher exits

	sc metrics.SchedCounters

	// waveGate, when set by in-package tests before any traffic, is
	// called by the dispatcher after each wave's jobs have been finished
	// and before the next wave is assembled. It makes wave boundaries
	// deterministic for streaming-overlap tests.
	waveGate func(wave int)

	// Dispatcher-only scratch, reused wave to wave.
	waveJobs  []*stepJob
	waveLive  []*stepJob
	waveSess  []*schedSession
	waveItems []core.StepItem
}

// schedSession is one session's admission queue: jobs[head:] is the FIFO
// of steps waiting to run. Pooled; a session with no queued work holds no
// entry at all.
type schedSession struct {
	id       int64
	jobs     []*stepJob
	head     int
	inFlight bool // a step of the session is executing (wave or direct)
	ready    bool // session is on the ready list
}

var schedSessionPool = sync.Pool{New: func() interface{} { return new(schedSession) }}

// stepJob is one admitted step. Pooled: the channel a single-step submit
// waits on (ownCh) survives recycling, so the steady-state scheduled
// path allocates no job machinery at all. ch is where the dispatcher
// delivers the finished job — ownCh for single steps, the collector's
// shared channel for streamed batches (sized to the batch, so the
// dispatcher never blocks on delivery).
type stepJob struct {
	id  int64
	req *StepRequest

	canceled *atomic.Bool // shared per streamed batch; nil for singles

	resp *StepResponse
	err  error

	ch    chan *stepJob
	ownCh chan *stepJob

	// Execution state, owned by whoever runs the job (begin to end).
	release func()
	scratch *stepScratch
}

var stepJobPool = sync.Pool{New: func() interface{} {
	j := &stepJob{}
	j.ownCh = make(chan *stepJob, 1)
	return j
}}

func getStepJob() *stepJob { return stepJobPool.Get().(*stepJob) }

func putStepJob(j *stepJob) {
	j.id = 0
	j.req = nil
	j.canceled = nil
	j.resp = nil
	j.err = nil
	j.ch = nil
	j.release = nil
	j.scratch = nil
	stepJobPool.Put(j)
}

// finish delivers the job to its waiter. Responses travel with the job;
// the waiter releases resp and recycles the job.
func (j *stepJob) finish(resp *StepResponse, err error) {
	j.resp, j.err = resp, err
	j.ch <- j
}

// errShutdown is what queued work drains with when the scheduler closes.
// It is KindUnavailable (503/UNAVAILABLE), not KindOverloaded (429): drain
// means "this replica is going away — resubmit elsewhere", where the
// overloaded rejection means "back off and retry here". A load balancer
// that conflated the two would keep hammering a dying replica.
var errShutdown = &Error{Kind: KindUnavailable, Message: "service shutting down"}

// errStepCanceled drains a streamed batch's remaining steps after the
// stream is abandoned; the collector discards it.
var errStepCanceled = &Error{Kind: KindInternal, Message: "step canceled"}

// newScheduler starts the dispatcher. waveSize/queueCap <= 0 pick
// defaults: waves sized to the DB's worker pool (so one wave of
// single-step sessions can occupy every worker even before the
// layers×heads fan-out multiplies the task count), and a queue of
// DefaultQueueDepth steps.
func newScheduler(svc *Service, waveSize, queueCap int) *Scheduler {
	if waveSize <= 0 {
		waveSize = svc.db.Pool().Size()
		if waveSize < 4 {
			waveSize = 4
		}
	}
	if queueCap <= 0 {
		queueCap = DefaultQueueDepth
	}
	if queueCap < waveSize {
		queueCap = waveSize
	}
	sch := &Scheduler{
		svc:      svc,
		waveSize: waveSize,
		queueCap: queueCap,
		sessions: make(map[int64]*schedSession),
		done:     make(chan struct{}),
	}
	sch.cond = sync.NewCond(&sch.mu)
	go sch.run()
	return sch
}

// Stats snapshots the scheduler counters.
func (sch *Scheduler) Stats() metrics.SchedSnapshot {
	s := sch.sc.Snapshot()
	s.WaveSize = sch.waveSize
	s.QueueCap = sch.queueCap
	return s
}

// SetWaveGate installs a hook the dispatcher calls after each wave's jobs
// have been delivered and before the next wave is assembled; it makes
// wave boundaries deterministic for streaming-overlap tests (the
// transport-conformance suite gates wave N+1 on the client having read
// item N off the wire). Test instrumentation only: install before any
// traffic reaches the scheduler.
func (sch *Scheduler) SetWaveGate(fn func(wave int)) { sch.waveGate = fn }

// Close rejects new steps, fails all queued work and stops the
// dispatcher, returning once it has exited and every direct step has
// finished. Steps already executing — the current wave's and the direct
// ones — complete normally. Idempotent and safe for concurrent callers:
// every call observes the scheduler fully stopped before returning.
func (sch *Scheduler) Close() {
	sch.mu.Lock()
	if !sch.closed {
		sch.closed = true
		sch.cond.Signal()
	}
	sch.mu.Unlock()
	<-sch.done
	sch.direct.Wait()
}

// sessionLocked returns id's entry, creating it on demand.
func (sch *Scheduler) sessionLocked(id int64) *schedSession {
	ss := sch.sessions[id]
	if ss == nil {
		ss = schedSessionPool.Get().(*schedSession)
		ss.id = id
		sch.sessions[id] = ss
	}
	return ss
}

// enqueueLocked queues job on its session, behind any step it has
// queued or in flight.
func (sch *Scheduler) enqueueLocked(job *stepJob) {
	ss := sch.sessionLocked(job.id)
	ss.jobs = append(ss.jobs, job)
	if !ss.inFlight && !ss.ready {
		ss.ready = true
		sch.ready = append(sch.ready, ss)
	}
	sch.queued++
	sch.sc.SetQueueDepth(sch.queued)
}

// settleLocked ends ss's executing step. A session with steps queued
// behind it goes back on the ready list and settleLocked reports true,
// unless the scheduler is closing: then the steps stay for drainLocked
// to fail. A session with nothing queued leaves the table.
func (sch *Scheduler) settleLocked(ss *schedSession) bool {
	ss.inFlight = false
	if ss.head < len(ss.jobs) {
		if sch.closed {
			return false
		}
		ss.ready = true
		sch.ready = append(sch.ready, ss)
		return true
	}
	delete(sch.sessions, ss.id)
	ss.jobs = ss.jobs[:0]
	ss.head = 0
	schedSessionPool.Put(ss)
	return false
}

// reserveLocked enforces the admission bound for n more steps and counts
// them as admitted.
func (sch *Scheduler) reserveLocked(n int) *Error {
	if sch.closed {
		return errShutdown
	}
	if sch.queued+n > sch.queueCap {
		sch.sc.Reject(n)
		return Overloadedf("decode queue full: %d steps queued, cap %d", sch.queued, sch.queueCap)
	}
	sch.sc.Admit(n)
	return nil
}

// StepOne runs a single validated step and returns the wire response
// exactly as a serial step on the session would. On an idle session the
// step runs on the calling goroutine; otherwise it queues behind the
// session's work and the caller blocks until its wave completes.
func (sch *Scheduler) StepOne(id int64, req *StepRequest) (*StepResponse, error) {
	job := getStepJob()
	job.id, job.req = id, req

	sch.mu.Lock()
	if err := sch.reserveLocked(1); err != nil {
		sch.mu.Unlock()
		putStepJob(job)
		return nil, err
	}
	if sch.sessions[id] == nil {
		ss := sch.sessionLocked(id)
		ss.inFlight = true
		sch.direct.Add(1)
		sch.mu.Unlock()
		return sch.runDirect(ss, job)
	}
	job.ch = job.ownCh
	sch.enqueueLocked(job)
	sch.cond.Signal()
	sch.mu.Unlock()

	<-job.ch
	resp, err := job.resp, job.err
	putStepJob(job)
	return resp, err
}

// runDirect executes job, a wave of one, on the calling goroutine while
// ss is registered as in flight, then settles ss — waking the dispatcher
// if steps queued behind it meanwhile.
func (sch *Scheduler) runDirect(ss *schedSession, job *stepJob) (*StepResponse, error) {
	sch.sc.ObserveWave(1)
	var resp *StepResponse
	it, err := sch.begin(job)
	if err == nil {
		it.Run()
		resp = sch.end(job, &it)
	}
	putStepJob(job)

	sch.mu.Lock()
	if sch.settleLocked(ss) {
		sch.cond.Signal()
	}
	sch.mu.Unlock()
	sch.direct.Done()
	return resp, err
}

// SubmitBatch schedules every step of a batch FIFO on one session,
// delivering finished jobs on ch (which must have capacity for the whole
// batch). The batch is admitted atomically: on an overloaded queue
// nothing is enqueued. canceled, checked by the dispatcher before
// executing each job, lets the collector abandon the tail of the batch.
func (sch *Scheduler) SubmitBatch(id int64, steps []StepRequest, ch chan *stepJob, canceled *atomic.Bool) *Error {
	sch.mu.Lock()
	if err := sch.reserveLocked(len(steps)); err != nil {
		sch.mu.Unlock()
		return err
	}
	for i := range steps {
		job := getStepJob()
		job.id, job.req = id, &steps[i]
		job.ch = ch
		job.canceled = canceled
		sch.enqueueLocked(job)
	}
	sch.cond.Signal()
	sch.mu.Unlock()
	return nil
}

// run is the dispatcher: assemble a wave, execute it, finish its jobs,
// repeat. One goroutine for the scheduler's lifetime.
func (sch *Scheduler) run() {
	defer close(sch.done)
	wave := 0
	for {
		sch.mu.Lock()
		for !sch.closed && len(sch.ready) == 0 {
			sch.cond.Wait()
		}
		if sch.closed {
			sch.drainLocked()
			sch.mu.Unlock()
			return
		}

		// Pop the head job of up to waveSize ready sessions, oldest
		// sessions first. A session contributes at most one step per
		// wave, which is what keeps per-session order FIFO.
		n := len(sch.ready)
		if n > sch.waveSize {
			n = sch.waveSize
		}
		jobs := sch.waveJobs[:0]
		sess := sch.waveSess[:0]
		for i := 0; i < n; i++ {
			ss := sch.ready[i]
			ss.ready = false
			ss.inFlight = true
			jobs = append(jobs, ss.jobs[ss.head])
			ss.jobs[ss.head] = nil
			ss.head++
			sess = append(sess, ss)
		}
		rest := copy(sch.ready, sch.ready[n:])
		for i := rest; i < len(sch.ready); i++ {
			sch.ready[i] = nil
		}
		sch.ready = sch.ready[:rest]
		sch.queued -= n
		sch.sc.SetQueueDepth(sch.queued)
		sch.mu.Unlock()

		sch.execWave(jobs)

		sch.mu.Lock()
		for _, ss := range sess {
			sch.settleLocked(ss)
		}
		sch.mu.Unlock()

		sch.waveJobs, sch.waveSess = jobs, sess
		if sch.waveGate != nil {
			sch.waveGate(wave)
		}
		wave++
	}
}

// drainLocked fails every queued job after close. A session whose direct
// step is still running is emptied too, so its settleLocked finds nothing
// to re-queue.
func (sch *Scheduler) drainLocked() {
	for id, ss := range sch.sessions {
		for _, job := range ss.jobs[ss.head:] {
			job.finish(nil, errShutdown)
		}
		clear(ss.jobs[ss.head:])
		ss.jobs = ss.jobs[:ss.head]
		delete(sch.sessions, id)
	}
	sch.ready = sch.ready[:0]
	sch.queued = 0
	sch.sc.SetQueueDepth(0)
}

// begin acquires j's session exclusively, checks the step against it and
// shapes a pooled result block, returning the step as a core.StepItem.
// On success j holds the session lock and the scratch until end.
func (sch *Scheduler) begin(j *stepJob) (core.StepItem, error) {
	sess, release, ok := sch.svc.reg.Acquire(j.id)
	if !ok {
		return core.StepItem{}, NotFoundf("no session %d", j.id)
	}
	if verr := checkSpanStep(sess, j.req); verr != nil {
		release()
		return core.StepItem{}, verr
	}
	j.release = release
	j.scratch = stepScratchPool.Get().(*stepScratch)
	mc := sch.svc.db.Model().Config()
	return core.StepItem{
		Sess:       sess,
		Token:      j.req.Token,
		Queries:    j.req.Queries,
		Out:        j.scratch.grab(mc.Layers, mc.QHeads),
		AttendOnly: j.req.AttendOnly,
	}, nil
}

// end builds the wire response over the item's filled results, hands the
// scratch to the response's done hook and releases j's session.
func (sch *Scheduler) end(j *stepJob, it *core.StepItem) *StepResponse {
	resp := stepRespFromResults(it.Out, it.Sess.ContextLen(0))
	sc := j.scratch
	resp.done = func() { stepScratchPool.Put(sc) }
	j.scratch = nil
	j.release()
	j.release = nil
	return resp
}

// execWave runs one wave: begin every job, decode the live items in a
// single cross-session core.StepWave fan-out, end them and deliver the
// jobs. Jobs whose session vanished (or whose stream was abandoned)
// finish immediately without touching the wave. The wave is counted
// before any job finishes, so a caller that has received a step's result
// also sees the wave that produced it in the counters.
func (sch *Scheduler) execWave(jobs []*stepJob) {
	sch.sc.ObserveWave(len(jobs))
	items := sch.waveItems[:0]
	live := sch.waveLive[:0]
	for _, j := range jobs {
		if j.canceled != nil && j.canceled.Load() {
			j.finish(nil, errStepCanceled)
			continue
		}
		it, err := sch.begin(j)
		if err != nil {
			j.finish(nil, err)
			continue
		}
		items = append(items, it)
		live = append(live, j)
	}

	core.StepWave(sch.svc.db.Pool(), items)

	for k, j := range live {
		resp := sch.end(j, &items[k])
		live[k] = nil
		items[k] = core.StepItem{}
		j.finish(resp, nil)
	}
	sch.waveItems, sch.waveLive = items[:0], live[:0]
}
