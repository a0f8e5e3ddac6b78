package serve

import (
	"context"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/devmem"
	"repro/internal/metrics"
	"repro/internal/model"
)

// Service is the transport-agnostic core of the serving API: every
// operation takes a typed request and returns a typed response or a typed
// *Error, with no HTTP anywhere in sight. The HTTP server (serve.go) is
// one thin codec over it; benches and tests call it in-process and
// exercise exactly the deployed logic. Safe for concurrent use — session
// lookup and locking follow the package comment's discipline.
type Service struct {
	db    *core.DB
	eps   metrics.EndpointCounters
	sched *Scheduler

	closeOnce sync.Once
	closeErr  error
}

// DefaultQueueDepth is the decode scheduler's admission-queue bound (in
// steps) when no option overrides it.
const DefaultQueueDepth = 1024

// MaxSteps bounds one step_stream batch: a request may carry at most this
// many steps, so nothing proportional to the batch is allocated or run
// before it is checked. Nodes and the cluster router share it.
const MaxSteps = 512

// options collects the knobs shared by NewService and NewServer.
type options struct {
	maxBody  int64
	queueCap int
}

// Option configures a Service or Server.
type Option func(*options)

// WithMaxBodyBytes bounds request body size on the HTTP server (ignored by
// a bare Service, which never reads a wire). Default 64 MiB.
func WithMaxBodyBytes(n int64) Option {
	return func(o *options) { o.maxBody = n }
}

// WithQueueDepth bounds the decode steps admitted but not yet started;
// submits beyond it are rejected with the typed overloaded error.
// Default DefaultQueueDepth.
func WithQueueDepth(n int) Option {
	return func(o *options) { o.queueCap = n }
}

// NewService returns the service core over db and its decode scheduler.
func NewService(db *core.DB, opts ...Option) *Service {
	o := options{maxBody: DefaultMaxBodyBytes}
	for _, fn := range opts {
		fn(&o)
	}
	s := &Service{db: db}
	s.sched = newScheduler(s, o.queueCap)
	return s
}

// DB returns the underlying context store.
func (s *Service) DB() *core.DB { return s.db }

// EndpointStats snapshots the per-endpoint request/latency counters.
func (s *Service) EndpointStats() []metrics.EndpointSnapshot { return s.eps.Snapshot() }

// Scheduler returns the decode scheduler, which holds the session table
// (tests and stats inspect it).
func (s *Service) Scheduler() *Scheduler { return s.sched }

// Close stops the decode scheduler (failing unstarted steps with the typed
// unavailable error and waiting for steps in flight), then closes every
// open session. Idempotent and safe for concurrent callers — the signal
// path, a serve-error path, and every transport can all reach it: the
// first caller does the work, and every caller blocks until it is done
// and returns the same result.
func (s *Service) Close() error {
	s.closeOnce.Do(func() {
		s.sched.Close()
		for _, sess := range s.sched.drain() {
			if err := sess.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// track times one service call and records it in the per-endpoint
// counters; use as `defer s.track(ep, &err)()` so the deferred closure sees
// the method's final error value.
func (s *Service) track(ep metrics.Endpoint, errp *error) func() {
	start := time.Now()
	return func() { s.eps.Observe(ep, *errp != nil, time.Since(start)) }
}

// --- wire types ---
//
// These structs are the protocol: the JSON codec marshals them directly,
// the binary frame codec (frame.go) encodes the tensor-heavy ones, and
// pkg/alayaclient exposes them to engine authors. Tensor-bearing responses
// (StepResponse) may alias pooled buffers — see Release.

// DocumentWire is the JSON form of a document and the create-session
// request body.
type DocumentWire struct {
	Seed   uint64        `json:"seed"`
	Tokens []model.Token `json:"tokens"`
}

// CreateSessionRequest opens a session over a document. SpanLo/SpanHi
// (both zero for ordinary sessions) open a range-shard session instead:
// the session carries the whole document but ingests and attends only
// rows [SpanLo, SpanHi) — SpanHi == 0 with SpanLo > 0 leaves the span
// open-ended, the tail-owner shard that also ingests generated tokens.
// A cluster router uses span sessions to split one context across nodes;
// span sessions skip prefix reuse and cannot be stored.
type CreateSessionRequest struct {
	Seed   uint64        `json:"seed"`
	Tokens []model.Token `json:"tokens"`
	SpanLo int           `json:"span_lo,omitempty"`
	SpanHi int           `json:"span_hi,omitempty"`
}

// CreateSessionResponse reports the session id and how many prompt tokens
// were reused from stored contexts (the "truncated prompts" of Table 2:
// the engine only needs to prefill from Reused onward).
type CreateSessionResponse struct {
	SessionID int64 `json:"session_id"`
	Reused    int   `json:"reused"`
}

// PrefillResponse reports a prefill's effect.
type PrefillResponse struct {
	Prefilled  int `json:"prefilled"`
	ContextLen int `json:"context_len"`
}

// AttentionResponse carries one head's output and the execution facts. LSE is
// the result's combined log-sum-exp — the weight a cluster router needs
// to fold per-node partials into one output. JSON cannot encode −Inf
// (nothing attended), so the wire pins that case to -math.MaxFloat64;
// LSESentinel restores it on the reading side.
type AttentionResponse struct {
	Output    []float32 `json:"output"`
	Plan      string    `json:"plan"`
	Retrieved int       `json:"retrieved"`
	Attended  int       `json:"attended"`
	LSE       float64   `json:"lse"`
}

// LSESentinel is the on-wire stand-in for an LSE of −Inf (an empty
// partial): any LSE at or below it must be treated as "nothing attended"
// and skipped by a second-level merge.
const LSESentinel = -math.MaxFloat64

// StepRequest is one whole decode step. It ingests the generated token
// and asks for attention outputs of every layer and head in a single
// round trip; Queries is indexed [layer][query head] and must cover the
// full model geometry. The token is its document entry only: the server
// generates KV through the substrate (a real deployment ships the K/V
// tensors; the substrate owns them here).
type StepRequest struct {
	Token   model.Token   `json:"token"`
	Queries [][][]float32 `json:"queries"`
	// AttendOnly computes the step's attention without ingesting Token —
	// attention over the context as it stands, and the request shape a
	// cluster router sends every fixed-span shard of a sharded context
	// (only the open tail-owner shard ingests).
	AttendOnly bool `json:"attend_only,omitempty"`
}

// StepResponse carries every head's attention output, indexed
// [layer][query head], over the context extended by the step's token.
type StepResponse struct {
	ContextLen int                   `json:"context_len"`
	Layers     [][]AttentionResponse `json:"layers"`
	released
}

// StepsRequest is a step_stream batch: N decode steps in one round trip,
// executed in order against the same session.
type StepsRequest struct {
	Steps []StepRequest `json:"steps"`
}

// StoreResponse reports a successful context store.
type StoreResponse struct {
	StoredTokens int `json:"stored_tokens"`
}

// CloseResponse acknowledges a session close.
type CloseResponse struct {
	Status string `json:"status"`
}

// HealthzResponse is the load-balancer probe body.
type HealthzResponse struct {
	Status       string `json:"status"`
	OpenSessions int    `json:"open_sessions"`
}

// StatsResponse summarises the DB across both storage tiers.
type StatsResponse struct {
	Contexts     int     `json:"contexts"`
	StoredBytes  int64   `json:"stored_bytes"`
	Evictions    int64   `json:"evictions"`
	DeviceUsedGB float64 `json:"device_used_gb"`
	OpenSessions int     `json:"open_sessions"`
	// Spill tier (zero/absent when no spill directory is configured).
	SpillEnabled    bool    `json:"spill_enabled"`
	SpilledContexts int     `json:"spilled_contexts,omitempty"`
	SpilledBytes    int64   `json:"spilled_bytes,omitempty"`
	Spills          int64   `json:"spills,omitempty"`
	ReloadHits      int64   `json:"reload_hits,omitempty"`
	ReloadMisses    int64   `json:"reload_misses,omitempty"`
	ReloadP50Millis float64 `json:"reload_p50_ms,omitempty"`
	ReloadP95Millis float64 `json:"reload_p95_ms,omitempty"`
	// Tier failure counters: spills that could not be written (the context
	// was dropped instead) and spilled contexts that could not be read
	// back (the session fell back to its best resident prefix). Nonzero
	// values mean re-prefill work the tier silently ate.
	SpillErrors  int64 `json:"spill_errors,omitempty"`
	ReloadErrors int64 `json:"reload_errors,omitempty"`
	// Prefix sharing (PRs 1-7): resident copy-on-write contexts, pinned
	// (unevictable) contexts, and the bytes shared bases serve to their
	// dependants without duplication, plus the activity counters behind
	// CreateSession's prefix lookup and Store's copy-on-write path.
	SharedContexts    int   `json:"shared_contexts,omitempty"`
	PinnedContexts    int   `json:"pinned_contexts,omitempty"`
	SharedPrefixBytes int64 `json:"shared_prefix_bytes,omitempty"`
	PrefixLookups     int64 `json:"prefix_lookups,omitempty"`
	PrefixHits        int64 `json:"prefix_hits,omitempty"`
	PrefixSpillHits   int64 `json:"prefix_spill_hits,omitempty"`
	CoWStores         int64 `json:"cow_stores,omitempty"`
	// Stored KV footprint split by plane (always present).
	KeyBytes   int64 `json:"key_bytes"`
	ValueBytes int64 `json:"value_bytes"`
	// QuantEnabled reports Config.QuantKeys: key rows sit on the SQ8 grid
	// and spill as packed int8 codes.
	QuantEnabled bool `json:"quant_enabled"`
	// Per-context index builds (absent until the first build): how many
	// ran and their wall-clock.
	IndexBuilds          int64 `json:"index_builds,omitempty"`
	IndexBuildMillis     int64 `json:"index_build_ms,omitempty"`
	LastIndexBuildMillis int64 `json:"last_index_build_ms,omitempty"`
	// Sched reports the decode scheduler: steps run, queue depth, and
	// admit/reject counters (absent behind a cluster router, which runs
	// no scheduler of its own).
	Sched *metrics.SchedSnapshot `json:"sched,omitempty"`
	// Cluster reports the shard router fronting this surface: per-node
	// health and routed-call counters (absent on a single-node daemon;
	// filled by the cluster router, never by a bare Service).
	Cluster *metrics.ClusterSnapshot `json:"cluster,omitempty"`
	// Per-endpoint request/latency counters of the serving API (absent
	// until the first request).
	Endpoints []metrics.EndpointSnapshot `json:"endpoints,omitempty"`
	// EncodeErrors counts response bodies the HTTP transport failed to
	// encode or write after the status line was committed (filled by the
	// Server; always 0 from a bare Service).
	EncodeErrors int64 `json:"encode_errors,omitempty"`
}

// --- pooled result buffers ---

// released gives tensor-bearing responses a Release method: their float
// slices alias pooled buffers drawn by the service, so a transport encodes
// the response and then calls Release to hand the buffers back. Release is
// optional — a caller that retains the response simply never releases, and
// the buffers are garbage collected instead of recycled — and idempotent.
type released struct {
	done func()
}

// Release recycles the response's pooled buffers. The response and any
// slices read from it must not be used afterwards.
func (r *released) Release() {
	if r.done != nil {
		r.done()
		r.done = nil
	}
}

// stepScratch is one pooled layers×heads result block. rows re-slices flat
// so AttentionResult entries — and their Output/RetrievedIDs storage — are
// reused across requests, the serving counterpart of core's decodeState
// pool: a busy server's steady-state step traffic allocates only the
// response envelopes, never the tensor buffers.
type stepScratch struct {
	flat []core.AttentionResult
	rows [][]core.AttentionResult
}

var stepScratchPool = sync.Pool{New: func() interface{} { return new(stepScratch) }}

// grab shapes the scratch to layers×heads and returns the row view.
func (sc *stepScratch) grab(layers, heads int) [][]core.AttentionResult {
	n := layers * heads
	if cap(sc.flat) < n {
		flat := make([]core.AttentionResult, n)
		copy(flat, sc.flat)
		sc.flat = flat
	}
	sc.flat = sc.flat[:n]
	if cap(sc.rows) < layers {
		sc.rows = make([][]core.AttentionResult, layers)
	}
	sc.rows = sc.rows[:layers]
	for l := 0; l < layers; l++ {
		sc.rows[l] = sc.flat[l*heads : (l+1)*heads]
	}
	return sc.rows
}

func attentionWire(res *core.AttentionResult) AttentionResponse {
	lse := res.LSE
	if math.IsInf(lse, -1) {
		lse = LSESentinel
	}
	return AttentionResponse{
		Output:    res.Output,
		Plan:      res.Plan.String(),
		Retrieved: res.Retrieved,
		Attended:  res.Attended,
		LSE:       lse,
	}
}

// --- operations ---

// CreateSession opens a session over the request document, reusing the
// longest stored-context prefix.
func (s *Service) CreateSession(req *CreateSessionRequest) (resp *CreateSessionResponse, err error) {
	defer s.track(metrics.EPCreateSession, &err)()
	doc := &model.Document{Seed: req.Seed, Tokens: req.Tokens}
	if req.SpanLo != 0 || req.SpanHi != 0 {
		sess, serr := s.db.CreateSpanSession(doc, req.SpanLo, req.SpanHi)
		if serr != nil {
			return nil, BadRequestf("span session: %v", serr)
		}
		id := s.sched.add(sess)
		return &CreateSessionResponse{SessionID: id, Reused: req.SpanLo}, nil
	}
	sess, reused := s.db.CreateSession(doc)
	id := s.sched.add(sess)
	return &CreateSessionResponse{SessionID: id, Reused: reused}, nil
}

// Prefill generates KV for every document token not covered by the reused
// prefix.
func (s *Service) Prefill(id int64) (resp *PrefillResponse, err error) {
	defer s.track(metrics.EPPrefill, &err)()
	sess, release, ok := s.sched.acquire(id)
	if !ok {
		return nil, NotFoundf("no session %d", id)
	}
	defer release()
	fed := sess.PrefillRemaining()
	return &PrefillResponse{Prefilled: fed, ContextLen: sess.ContextLen(0)}, nil
}

// checkStepQueries validates a full layers×heads query block.
func checkStepQueries(qs [][][]float32, mc model.Config) *Error {
	if len(qs) != mc.Layers {
		return BadRequestf("%d query layers, want one per layer (%d)", len(qs), mc.Layers)
	}
	for l, row := range qs {
		if len(row) != mc.QHeads {
			return BadRequestf("layer %d: %d queries, want one per head (%d)", l, len(row), mc.QHeads)
		}
		for h, q := range row {
			if len(q) != mc.HeadDim {
				return BadRequestf("layer %d: head %d query dim %d, want %d", l, h, len(q), mc.HeadDim)
			}
		}
	}
	return nil
}

// stepRespFromResults builds the wire response over a filled layers×heads
// result block (which the response's float slices alias — the caller's
// done hook owns the backing scratch).
func stepRespFromResults(results [][]core.AttentionResult, ctxLen int) *StepResponse {
	resp := &StepResponse{ContextLen: ctxLen, Layers: make([][]AttentionResponse, len(results))}
	for l := range results {
		resp.Layers[l] = make([]AttentionResponse, len(results[l]))
		for h := range results[l] {
			resp.Layers[l][h] = attentionWire(&results[l][h])
		}
	}
	return resp
}

// checkSpanStep rejects an ingesting step on a fixed-span shard session:
// its span is frozen, so only attend-only steps are well-defined.
func checkSpanStep(sess *core.Session, req *StepRequest) *Error {
	if sess.FixedSpan() && !req.AttendOnly {
		return Conflictf("fixed-span shard sessions serve attend-only steps; set attend_only")
	}
	return nil
}

// Step is the decode API: ingest the step's token (unless AttendOnly) and
// return attention outputs for all layers × all heads in one call. The
// step runs on the caller's goroutine once it holds the session; a step
// on a busy session waits for it. The response is bitwise-identical to a
// serial step on the session.
func (s *Service) Step(id int64, req *StepRequest) (resp *StepResponse, err error) {
	defer s.track(metrics.EPStep, &err)()
	mc := s.db.Model().Config()
	if verr := checkStepQueries(req.Queries, mc); verr != nil {
		return nil, verr
	}
	return s.sched.StepOne(id, req)
}

// checkStepsBound enforces the per-request step-batch bound before
// anything is allocated proportionally to the request.
func checkStepsBound(n int) *Error {
	if n > MaxSteps {
		return BadRequestf("batch of %d steps exceeds the %d-step limit", n, MaxSteps)
	}
	return nil
}

// StepStream runs a batch of decode steps in order on the calling
// goroutine and delivers each StepResponse to sink as soon as its step
// completes, instead of buffering the batch — the caller overlaps reading
// step N with the service decoding step N+1. The batch holds its session
// throughout, so a step submitted behind it runs after the whole batch,
// and each step computes under the scheduler's stream lane (see
// Scheduler). The response passed to sink is valid only for the duration
// of the call: its buffers are reused when sink returns. A sink error, a
// ctx cancellation or the first step error ends the batch — its remaining
// steps never run — and is returned.
func (s *Service) StepStream(ctx context.Context, id int64, req *StepsRequest, sink func(*StepResponse) error) (err error) {
	defer s.track(metrics.EPStepStream, &err)()
	if verr := checkStepsBound(len(req.Steps)); verr != nil {
		return verr
	}
	mc := s.db.Model().Config()
	for i := range req.Steps {
		if verr := checkStepQueries(req.Steps[i].Queries, mc); verr != nil {
			return BadRequestf("step %d: %s", i, verr.Message)
		}
	}
	if len(req.Steps) == 0 {
		return nil
	}
	return s.sched.StepStream(ctx, id, req.Steps, sink)
}

// Store persists the session's full state as a reusable context.
func (s *Service) Store(id int64) (resp *StoreResponse, err error) {
	defer s.track(metrics.EPStore, &err)()
	sess, release, ok := s.sched.acquire(id)
	if !ok {
		return nil, NotFoundf("no session %d", id)
	}
	defer release()
	ctx, serr := s.db.Store(sess)
	if serr != nil {
		return nil, Conflictf("store: %v", serr)
	}
	return &StoreResponse{StoredTokens: ctx.Len()}, nil
}

// CloseSession removes and closes a session, draining in-flight requests.
func (s *Service) CloseSession(id int64) (resp *CloseResponse, err error) {
	defer s.track(metrics.EPCloseSession, &err)()
	sess, ok := s.sched.remove(id)
	if !ok {
		return nil, NotFoundf("no session %d", id)
	}
	if cerr := sess.Close(); cerr != nil {
		return nil, Internalf("close: %v", cerr)
	}
	return &CloseResponse{Status: "closed"}, nil
}

// Healthz is the liveness probe.
func (s *Service) Healthz() *HealthzResponse {
	resp := &HealthzResponse{Status: "ok", OpenSessions: s.sched.openSessions()}
	s.eps.Observe(metrics.EPHealthz, false, 0)
	return resp
}

// Stats summarises the DB, both storage tiers, and the serving API's
// per-endpoint counters.
func (s *Service) Stats() (resp *StatsResponse, err error) {
	defer s.track(metrics.EPStats, &err)()
	resp = &StatsResponse{
		Contexts:     s.db.NumContexts(),
		StoredBytes:  s.db.StoredBytes(),
		Evictions:    s.db.Evictions(),
		DeviceUsedGB: devmem.GB(s.db.Device().Used()),
		OpenSessions: s.sched.openSessions(),
	}
	kv := s.db.StoredKVBytes()
	resp.KeyBytes = kv.Keys
	resp.ValueBytes = kv.Values
	resp.QuantEnabled = s.db.QuantEnabled()
	if ts := s.db.TierStats(); ts.Enabled {
		resp.SpillEnabled = true
		resp.SpilledContexts = ts.SpilledContexts
		resp.SpilledBytes = ts.SpilledDiskBytes
		resp.Spills = ts.Counters.Spills
		resp.ReloadHits = ts.Counters.ReloadHits
		resp.ReloadMisses = ts.Counters.ReloadMisses
		resp.ReloadP50Millis = float64(ts.Counters.ReloadP50) / float64(time.Millisecond)
		resp.ReloadP95Millis = float64(ts.Counters.ReloadP95) / float64(time.Millisecond)
		resp.SpillErrors = ts.Counters.SpillErrors
		resp.ReloadErrors = ts.Counters.ReloadErrors
	}
	sh := s.db.SharingStats()
	resp.SharedContexts = sh.SharedContexts
	resp.PinnedContexts = sh.PinnedContexts
	resp.SharedPrefixBytes = sh.SharedPrefixBytes
	resp.PrefixLookups = sh.Counters.PrefixLookups
	resp.PrefixHits = sh.Counters.PrefixHits
	resp.PrefixSpillHits = sh.Counters.PrefixSpillHits
	resp.CoWStores = sh.Counters.CoWStores
	if cp := s.db.CtxParStats(); cp.IndexBuilds > 0 {
		resp.IndexBuilds = cp.IndexBuilds
		resp.IndexBuildMillis = cp.IndexBuildMillis
		resp.LastIndexBuildMillis = cp.LastIndexBuildMillis
	}
	snap := s.sched.Stats()
	resp.Sched = &snap
	resp.Endpoints = s.eps.Snapshot()
	return resp, nil
}
