package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/model"
)

var processStart = time.Now()

// nowNs is the benchmark's clock: monotonic nanoseconds since process
// start, so spans from every goroutine share one timeline.
func nowNs() int64 { return int64(time.Since(processStart)) }

// request is one unit of traffic, the same shape on every workload:
// CreateSession → Prefill (only if Reused < len) → steps → [Store] →
// CloseSession, with a fixed step count so the exactly-attended tail grows
// by the same bounded amount on both sides of any comparison.
type request struct {
	id   int
	kind string // workload-specific class, reported per kind (e.g. "routed", "sharded")
	ctx  *docCtx
	doc  *model.Document
	// wantReuse is the Reused the generator expects CreateSession to
	// report; a different value means the benchmark is timing another plan.
	wantReuse int
	steps     int
	batch     int // 0: unary Step; >0: StepStream batches of this many steps
	store     bool
	answer    int // planted payload, or -1 when the request cannot see it
	// coldRaceOK tolerates Reused below the expectation: with several clients
	// on a spilling DB, a base another client's store has just evicted is,
	// while its spill files are being written, neither resident nor
	// catalogued (and a reload racing that write can fail), so a create in
	// that window re-prefills from scratch. That is the system's behaviour
	// under churn; it is counted (and capped) instead of failed.
	coldRaceOK bool
	// sampleLayer/sampleKV >= 0 mark a request whose outputs at sampleSteps
	// are kept for the oracle check.
	sampleLayer, sampleKV int
	sampleSteps           []int
}

// op indexes the per-phase sent/ok/failed counters.
type op int

const (
	opCreate op = iota
	opPrefill
	opStep
	opStore
	opClose
	numOps
)

var opNames = [numOps]string{"create", "prefill", "step", "store", "close"}

type opCount struct{ sent, failed int64 }

// span is one traced call. Spans of one request share request_id; parent
// indexes the enclosing span in the same recorder (-1 for a request span).
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Depth   int    `json:"depth"`
	Request int    `json:"request_id"`
	Step    int    `json:"step"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// outSample is one kept head output plus what the oracle needs to rebuild
// its exact counterpart.
type outSample struct {
	req         *request
	step        int
	layer, head int
	out         []float32
}

// answerRec keeps one step's retrieval-head outputs of a request so the
// planted question is decoded after timing ends.
type answerRec struct {
	req  *request
	outs []model.HeadOutput
}

// recorder collects everything one client observes. One recorder belongs to
// one goroutine; merge combines them after the phase.
type recorder struct {
	layer string // span layer label for this depth
	depth int
	trace bool // keep spans
	batch int  // frames per streamed batch on this recorder's requests (0 = unary)
	hash  bool // keep per-step output hashes (depth replay)

	tpot, ttft  []float64 // ms
	ttftByKind  map[string][]float64
	tpotByKind  map[string][]float64
	steps       int64
	requests    int64
	sampledReqs int
	reuseMisses int64
	ops         [numOps]opCount
	plans       map[string]int64
	retrieved   int64
	attended    int64
	queries     int64
	callNs      int64
	loopNs      int64
	violations  []string
	samples     []outSample
	answers     []answerRec
	spans       []span
	hashes      map[int][]uint64

	retrievalHeads []model.HeadRef
	layers, heads  int
	groupSize      int
}

func newRecorder(m *model.Model, layer string, depth int) *recorder {
	mc := m.Config()
	return &recorder{
		layer: layer, depth: depth,
		ttftByKind: map[string][]float64{}, tpotByKind: map[string][]float64{},
		plans: map[string]int64{}, hashes: map[int][]uint64{},
		retrievalHeads: m.RetrievalHeads(),
		layers:         mc.Layers, heads: mc.QHeads, groupSize: m.GroupSize(),
	}
}

func (rec *recorder) violate(format string, args ...interface{}) {
	if len(rec.violations) < 16 {
		rec.violations = append(rec.violations, fmt.Sprintf(format, args...))
	}
}

// call accounts one timed call into the layer under test.
func (rec *recorder) call(o op, name string, r *request, step, parent int, start, end int64, err error) {
	rec.ops[o].sent++
	if err != nil {
		rec.ops[o].failed++
		rec.violate("request %d (%s) %s: %v", r.id, r.kind, name, err)
	}
	rec.callNs += end - start
	if rec.trace {
		rec.spans = append(rec.spans, span{Name: name, Layer: rec.layer, Depth: rec.depth,
			Request: r.id, Step: step, Start: start, End: end, Parent: parent})
	}
}

// isAnswerStep picks the steps whose outputs answer the planted question:
// four per request, spread over its length (each step's query carries its
// own noise, so a borderline document scores a fraction, not all-or-nothing).
func isAnswerStep(step, steps int) bool {
	return step == 0 || step == steps/3 || step == 2*steps/3 || step == steps-1
}

// consume reads one step's outputs: plan mix and retrieval counts always,
// oracle samples / answers / hashes when this request and step ask for them.
func (rec *recorder) consume(r *request, step int, out *stepOut) {
	rec.steps++
	for l := 0; l < rec.layers; l++ {
		for h := 0; h < rec.heads; h++ {
			rec.plans[out.plan(l, h)]++
			ret, att := out.counts(l, h)
			rec.retrieved += int64(ret)
			rec.attended += int64(att)
		}
	}
	rec.queries += int64(rec.layers * rec.heads)
	if r.answer >= 0 && isAnswerStep(step, r.steps) {
		a := answerRec{req: r}
		for _, hr := range rec.retrievalHeads {
			a.outs = append(a.outs, model.HeadOutput{Layer: hr.Layer, QHead: hr.QHead,
				Output: append([]float32(nil), out.output(hr.Layer, hr.QHead)...)})
		}
		rec.answers = append(rec.answers, a)
	}
	for i, s := range r.sampleSteps {
		if s != step || rec.sampledReqs > maxSampledRequests {
			continue
		}
		if i == 0 {
			if rec.sampledReqs++; rec.sampledReqs > maxSampledRequests {
				continue
			}
		}
		for g := 0; g < rec.groupSize; g++ {
			h := r.sampleKV*rec.groupSize + g
			rec.samples = append(rec.samples, outSample{req: r, step: step, layer: r.sampleLayer, head: h,
				out: append([]float32(nil), out.output(r.sampleLayer, h)...)})
		}
	}
	if rec.hash {
		hs := fnv.New64a()
		var b [4]byte
		for l := 0; l < rec.layers; l++ {
			for h := 0; h < rec.heads; h++ {
				for _, v := range out.output(l, h) {
					u := math.Float32bits(v)
					b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
					hs.Write(b[:])
				}
			}
		}
		rec.hashes[r.id] = append(rec.hashes[r.id], hs.Sum64())
	}
}

// run drives one request through p. TTFT runs from the CreateSession call
// to the first step's output (prefill and any spill reload included); TPOT
// samples are steps 2..N — for streamed batches the gap between
// consecutive frames, a batch's first frame timed from its send.
func (rec *recorder) run(p path, r *request) {
	loopStart := nowNs()
	defer func() { rec.loopNs += nowNs() - loopStart }()
	rec.requests++
	parent := -1
	if rec.trace {
		parent = len(rec.spans)
		rec.spans = append(rec.spans, span{Name: "request:" + r.kind, Layer: "loadgen", Depth: rec.depth - 1,
			Request: r.id, Step: -1, Start: loopStart, Parent: -1})
		defer func() { rec.spans[parent].End = nowNs() }()
	}

	t0 := nowNs()
	s, reused, err := p.create(r.doc)
	rec.call(opCreate, "create", r, -1, parent, t0, nowNs(), err)
	if err != nil {
		return
	}
	defer func() {
		ts := nowNs()
		err := s.close()
		rec.call(opClose, "close", r, -1, parent, ts, nowNs(), err)
	}()
	if reused != r.wantReuse {
		if reused < r.wantReuse && r.coldRaceOK {
			rec.reuseMisses++ // see request.coldRaceOK
		} else {
			rec.violate("request %d (%s): reused %d tokens, generator expected %d", r.id, r.kind, reused, r.wantReuse)
		}
	}
	if reused < r.doc.Len() {
		ts := nowNs()
		err := s.prefill()
		rec.call(opPrefill, "prefill", r, -1, parent, ts, nowNs(), err)
		if err != nil {
			return
		}
	}

	observe := func(step int, ms float64) {
		if step == 0 {
			rec.ttft = append(rec.ttft, ms)
			rec.ttftByKind[r.kind] = append(rec.ttftByKind[r.kind], ms)
		} else {
			rec.tpot = append(rec.tpot, ms)
			rec.tpotByKind[r.kind] = append(rec.tpotByKind[r.kind], ms)
		}
	}
	var out stepOut
	if r.batch == 0 {
		for i := 0; i < r.steps; i++ {
			ts := nowNs()
			err := s.step(r.ctx.stepToks[i], r.ctx.queries[i], &out)
			te := nowNs()
			rec.call(opStep, "step", r, i, parent, ts, te, err)
			if err != nil {
				return
			}
			if i == 0 {
				observe(0, float64(te-t0)/1e6)
			} else {
				observe(i, float64(te-ts)/1e6)
			}
			rec.consume(r, i, &out)
			out.release()
		}
	} else {
		rec.batch = r.batch
		for lo := 0; lo < r.steps; lo += r.batch {
			hi := lo + r.batch
			if hi > r.steps {
				hi = r.steps
			}
			ts := nowNs()
			prev := ts
			got := 0
			var first, last int64
			err := s.stream(r.ctx.stepToks[lo:hi], r.ctx.queries[lo:hi], func(i int, o *stepOut) {
				tf := nowNs()
				step := lo + i
				name := "stream_gap"
				if i == 0 {
					name = "stream_first_frame"
					first = tf
				}
				last = tf
				rec.call(opStep, name, r, step, parent, prev, tf, nil)
				if step == 0 {
					observe(0, float64(tf-t0)/1e6)
				}
				rec.consume(r, step, o)
				got++
				// Time spent consuming the frame is the generator's, not the
				// stream's: the next gap starts after it.
				prev = nowNs()
			})
			// Frames of one batch often reach the client in pairs (two waves'
			// frames in one read), so single gaps are bimodal; each token is
			// charged its batch's mean gap instead. A request's first token is
			// its TTFT, not a TPOT sample.
			if from, n := ts, got; n > 0 {
				if lo == 0 {
					from, n = first, got-1
				}
				for i := 0; i < n; i++ {
					observe(lo+1, float64(last-from)/1e6/float64(n))
				}
			}
			te := nowNs()
			rec.callNs += te - prev // stream teardown after the last frame
			if rec.trace {
				rec.spans = append(rec.spans, span{Name: "stream_batch", Layer: rec.layer, Depth: rec.depth,
					Request: r.id, Step: lo, Start: ts, End: te, Parent: parent})
			}
			if err != nil || got != hi-lo {
				if err == nil {
					err = fmt.Errorf("stream delivered %d of %d frames", got, hi-lo)
				}
				// Steps the stream never delivered were attempted and failed.
				for i := got; i < hi-lo; i++ {
					rec.call(opStep, "stream_gap", r, lo+i, parent, te, te, err)
				}
				return
			}
		}
	}
	if r.store {
		ts := nowNs()
		err := s.store()
		rec.call(opStore, "store", r, -1, parent, ts, nowNs(), err)
	}
}

// merge folds other into rec (spans and hashes included).
func (rec *recorder) merge(other *recorder) {
	rec.tpot = append(rec.tpot, other.tpot...)
	rec.ttft = append(rec.ttft, other.ttft...)
	for k, v := range other.ttftByKind {
		rec.ttftByKind[k] = append(rec.ttftByKind[k], v...)
	}
	for k, v := range other.tpotByKind {
		rec.tpotByKind[k] = append(rec.tpotByKind[k], v...)
	}
	rec.steps += other.steps
	rec.requests += other.requests
	rec.reuseMisses += other.reuseMisses
	for i := range rec.ops {
		rec.ops[i].sent += other.ops[i].sent
		rec.ops[i].failed += other.ops[i].failed
	}
	for k, v := range other.plans {
		rec.plans[k] += v
	}
	rec.retrieved += other.retrieved
	rec.attended += other.attended
	rec.queries += other.queries
	rec.callNs += other.callNs
	rec.loopNs += other.loopNs
	rec.violations = append(rec.violations, other.violations...)
	rec.samples = append(rec.samples, other.samples...)
	rec.answers = append(rec.answers, other.answers...)
	base := len(rec.spans)
	for _, sp := range other.spans {
		if sp.Parent >= 0 {
			sp.Parent += base
		}
		rec.spans = append(rec.spans, sp)
	}
	for k, v := range other.hashes {
		rec.hashes[k] = v
	}
}

func (rec *recorder) attempted() (sent, failed int64) {
	for _, o := range rec.ops {
		sent += o.sent
		failed += o.failed
	}
	return
}

// spanDurations returns the durations (µs) of this recorder's spans named
// name, optionally restricted to one request kind.
func (rec *recorder) spanDurations(name string) []float64 {
	var out []float64
	for _, sp := range rec.spans {
		if sp.Name == name {
			out = append(out, float64(sp.End-sp.Start)/1e3)
		}
	}
	return out
}

// percentile estimates the p-quantile (0 < p < 1) of xs as the mean of the
// order statistics within a small band of ranks around p — ±0.05, narrowed
// so the band stays symmetric inside (0, 1): p95 averages ranks 92.5–97.5 %.
// A single order statistic sits wherever the distribution happens to be
// steep and jumps from run to run; the band mean moves smoothly. Returns 0
// for an empty sample; xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	w := math.Min(0.05, math.Min(p, 1-p)/2)
	lo := int(math.Floor((p - w) * float64(len(xs))))
	hi := int(math.Ceil((p + w) * float64(len(xs))))
	if hi > len(xs) {
		hi = len(xs)
	}
	if lo >= hi {
		lo = hi - 1
	}
	return mean(xs[lo:hi])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// phase is one measured stretch of closed-loop traffic.
type phase struct {
	rec  *recorder
	wall time.Duration
}

// runPhase drives every client's request sequence in a closed loop — a
// client issues its next request only once the previous one completed, the
// way an inference engine waits for a step's attention output — until the
// phase's budget is spent: seconds of wall time, or, when perClient > 0,
// exactly that many requests per client (sample counts then repeat
// exactly, which the determinism check relies on). The phase covers the
// stretch [from, to) of the run's progress, which is what schedules a
// workload's rare heavy requests: a run cut into phases still issues each
// of them once, in the phase its progress point falls in.
func (b *bench) runPhase(seconds float64, perClient int, trace bool, from, to float64) phase {
	recs := make([]*recorder, len(b.clients))
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := range b.clients {
		recs[c] = newRecorder(b.m, b.clientLayer, 1)
		recs[c].trace = trace
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := b.clients[c]
			for n := 0; ; n++ {
				done := time.Since(start).Seconds() / seconds
				if perClient > 0 {
					done = float64(n) / float64(perClient)
				}
				if done >= 1 || (perClient == 0 && time.Now().After(deadline)) {
					return
				}
				recs[c].run(cl.path, cl.next(from+(to-from)*done))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	all := recs[0]
	for _, r := range recs[1:] {
		all.merge(r)
	}
	return phase{rec: all, wall: wall}
}
