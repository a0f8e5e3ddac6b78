package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/metrics"
)

// The continuous-batching decode scheduler. Decoding per request handles
// one session at a time: a step on a small model leaves most of
// the worker pool idle, and sixteen tenants decoding at batch size 1
// saturate nothing. The Scheduler instead admits Step work from *all*
// sessions into one queue and dispatches it in shared decode waves — up
// to waveSize sessions per wave, one step each, executed as a single
// core.StepWave fan-out — so the pool sees items×layers×heads tasks per
// barrier no matter how the steps arrived.
//
// Ordering: steps of one session never share a wave (a wave carries at
// most the head of each session's queue), so per-session execution is
// strictly FIFO and runs under the session's lock exactly like a serial
// step; outputs are bitwise-identical to serial steps on each session.
// Fairness: the ready list is a FIFO of sessions, so a session streaming
// thousands of steps cannot starve a session submitting its first.
//
// Backpressure: admission is bounded by queueCap steps. A submit that
// would exceed the bound — for a batch, counting every step in it — is
// rejected whole with the typed overloaded error; nothing is partially
// enqueued.
type Scheduler struct {
	svc      *Service
	waveSize int
	queueCap int

	mu       sync.Mutex
	cond     *sync.Cond // signalled when ready work appears or Close begins
	sessions map[int64]*schedSession
	ready    []*schedSession // FIFO of sessions with a dispatchable head job
	queued   int             // steps admitted, not yet dispatched
	closed   bool

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
	inFlight bool // head job is in the wave being executed
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

	// Wave-execution state, dispatcher-owned.
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

// Close rejects all queued work and stops the dispatcher, returning once
// it has exited. Jobs in the wave being executed complete normally.
// Idempotent and safe for concurrent callers: every call observes the
// dispatcher fully stopped before returning.
func (sch *Scheduler) Close() {
	sch.mu.Lock()
	if sch.closed {
		sch.mu.Unlock()
		<-sch.done
		return
	}
	sch.closed = true
	sch.cond.Signal()
	sch.mu.Unlock()
	<-sch.done
}

// admitLocked queues job on its session, creating the entry on demand.
func (sch *Scheduler) admitLocked(job *stepJob) {
	ss := sch.sessions[job.id]
	if ss == nil {
		ss = schedSessionPool.Get().(*schedSession)
		ss.id = job.id
		sch.sessions[job.id] = ss
	}
	ss.jobs = append(ss.jobs, job)
	if !ss.inFlight && !ss.ready {
		ss.ready = true
		sch.ready = append(sch.ready, ss)
	}
}

// reserveLocked enforces the admission bound for n more steps.
func (sch *Scheduler) reserveLocked(n int) *Error {
	if sch.closed {
		return errShutdown
	}
	if sch.queued+n > sch.queueCap {
		sch.sc.Reject(n)
		return Overloadedf("decode queue full: %d steps queued, cap %d", sch.queued, sch.queueCap)
	}
	sch.queued += n
	sch.sc.Admit(n)
	sch.sc.SetQueueDepth(sch.queued)
	return nil
}

// StepOne schedules a single validated step and blocks until its wave
// completes, returning the wire response exactly as a serial step on
// the session would.
func (sch *Scheduler) StepOne(id int64, req *StepRequest) (*StepResponse, error) {
	job := getStepJob()
	job.id, job.req = id, req
	job.ch = job.ownCh

	sch.mu.Lock()
	if err := sch.reserveLocked(1); err != nil {
		sch.mu.Unlock()
		putStepJob(job)
		return nil, err
	}
	sch.admitLocked(job)
	sch.cond.Signal()
	sch.mu.Unlock()

	<-job.ch
	resp, err := job.resp, job.err
	putStepJob(job)
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
		sch.admitLocked(job)
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
			ss.inFlight = false
			if ss.head < len(ss.jobs) {
				ss.ready = true
				sch.ready = append(sch.ready, ss)
			} else {
				delete(sch.sessions, ss.id)
				ss.jobs = ss.jobs[:0]
				ss.head = 0
				schedSessionPool.Put(ss)
			}
		}
		sch.mu.Unlock()

		sch.waveJobs, sch.waveSess = jobs, sess
		if sch.waveGate != nil {
			sch.waveGate(wave)
		}
		wave++
	}
}

// drainLocked fails every queued job after close.
func (sch *Scheduler) drainLocked() {
	for id, ss := range sch.sessions {
		for _, job := range ss.jobs[ss.head:] {
			job.finish(nil, errShutdown)
		}
		delete(sch.sessions, id)
	}
	sch.ready = sch.ready[:0]
	sch.queued = 0
	sch.sc.SetQueueDepth(0)
}

// execWave runs one wave: acquire each job's session exclusively, decode
// every live item in a single cross-session core.StepWave fan-out, build
// the wire responses from pooled scratch, release the locks, and deliver
// the jobs. Jobs whose session vanished (or whose stream was abandoned)
// finish immediately without touching the wave. The wave is counted
// before any job finishes, so a caller that has received a step's result
// also sees the wave that produced it in the counters.
func (sch *Scheduler) execWave(jobs []*stepJob) {
	sch.sc.ObserveWave(len(jobs))
	mc := sch.svc.db.Model().Config()
	items := sch.waveItems[:0]
	live := sch.waveLive[:0]
	for _, j := range jobs {
		if j.canceled != nil && j.canceled.Load() {
			j.finish(nil, errStepCanceled)
			continue
		}
		sess, release, ok := sch.svc.reg.Acquire(j.id)
		if !ok {
			j.finish(nil, NotFoundf("no session %d", j.id))
			continue
		}
		if verr := checkSpanStep(sess, j.req); verr != nil {
			release()
			j.finish(nil, verr)
			continue
		}
		j.release = release
		j.scratch = stepScratchPool.Get().(*stepScratch)
		items = append(items, core.StepItem{
			Sess:       sess,
			Token:      j.req.Token,
			Queries:    j.req.Queries,
			Out:        j.scratch.grab(mc.Layers, mc.QHeads),
			AttendOnly: j.req.AttendOnly,
		})
		live = append(live, j)
	}

	core.StepWave(sch.svc.db.Pool(), items)

	for k, j := range live {
		resp := stepRespFromResults(items[k].Out, items[k].Sess.ContextLen(0))
		sc := j.scratch
		resp.done = func() { stepScratchPool.Put(sc) }
		j.scratch = nil
		j.release()
		j.release = nil
		live[k] = nil
		items[k] = core.StepItem{}
		j.finish(resp, nil)
	}
	sch.waveItems, sch.waveLive = items[:0], live[:0]
}
