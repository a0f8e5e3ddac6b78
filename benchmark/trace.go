package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/pkg/alayaclient"
)

// perLayerMetrics is every per-layer metric a traced run reports, by
// module. A metric a workload's path never touches reads 0 there — which is
// itself the prediction: that layer cannot move this workload.
var perLayerMetrics = []metricDef{
	{"alayaclient.step_us", "us"}, {"alayaclient.create_us", "us"},
	{"alayaclient.stream_first_frame_us", "us"}, {"alayaclient.stream_gap_us", "us"},
	{"serve.http.self_us", "us"}, {"serve.frame.encode_us", "us"}, {"serve.frame.decode_us", "us"},
	{"serve.frame.bytes_per_step", "bytes"},
	{"serve.service.self_us", "us"}, {"serve.sched.avg_wave", "count"}, {"serve.sched.max_wave", "count"},
	{"serve.sched.admitted", "count"}, {"serve.sched.rejected", "count"},
	{"serve.endpoint.step_mean_us", "us"}, {"serve.endpoint.step_max_us", "us"}, {"serve.endpoint.errors", "count"},
	{"serve.grpc.unary_self_us", "us"}, {"serve.grpc.stream_self_us_per_tok", "us"},
	{"cluster.routed_self_us", "us"}, {"cluster.sharded_step_us", "us"}, {"cluster.sharded_slowest_span_us", "us"},
	{"cluster.sharded_merge_self_us", "us"}, {"cluster.fanout_calls_per_step", "count"}, {"cluster.merges", "count"},
	{"cluster.unavailable", "count"}, {"cluster.retries", "count"}, {"cluster.node_call_imbalance", "ratio"},
	{"core.step_us", "us"}, {"core.create_hit_us", "us"}, {"core.plan.full_frac", "ratio"},
	{"core.plan.dipr_fine_frac", "ratio"}, {"core.plan.dipr_flat_frac", "ratio"}, {"core.plan.filtered_frac", "ratio"},
	{"core.flat_fallbacks", "count"}, {"core.retrieved_per_query", "count"}, {"core.explored_per_query", "count"},
	{"core.reranked_per_query", "count"}, {"core.attended_per_query", "count"}, {"core.recovery_ratio", "ratio"},
	{"core.import_ms", "ms"}, {"core.index_build_ms", "ms"}, {"core.prefill_us_per_tok", "us"},
	{"core.store_cow_us", "us"}, {"core.store_cold_ms", "ms"}, {"core.reload_ms", "ms"}, {"core.reload_share", "ratio"},
	{"core.prefix_lookups", "count"}, {"core.prefix_hits", "count"}, {"core.prefix_spill_hits", "count"},
	{"core.cow_stores", "count"}, {"core.evictions", "count"}, {"core.tier.spills", "count"},
	{"core.tier.spill_errors", "count"}, {"core.tier.reload_errors", "count"}, {"core.tier.disk_mb", "MB"},
	{"core.shared_prefix_mb", "MB"},
	{"query.diprs_us", "us"}, {"query.explored_per_probe", "count"}, {"query.yield", "ratio"}, {"query.optimize_ns", "ns"},
	{"index.flat.scan_us", "us"}, {"index.graph.build_ms", "ms"}, {"index.graph.bytes_per_token", "bytes"},
	{"index.coarse.select_us", "us"},
	{"attention.over_us", "us"}, {"attention.over_q8_us", "us"}, {"attention.segments_us", "us"}, {"attention.merge_us", "us"},
	{"vec.dot_gbs", "GB/s"}, {"vec.dotq8_gbs", "GB/s"}, {"vec.wsum_gbs", "GB/s"},
	{"storage.save_mb_s", "MB/s"}, {"storage.load_mb_s", "MB/s"}, {"storage.disk_bytes_per_kv_byte", "ratio"},
	{"storage.buffer.hit_rate", "ratio"}, {"storage.buffer.misses", "count"},
	{"kvcache.bytes_per_token", "bytes"}, {"kvcache.quant_bytes_per_token", "bytes"}, {"model.kvgen_us_per_tok", "us"},
	{"devmem.window_mb", "MB"}, {"devmem.blockcache_mb", "MB"},
	{"runtime.alloc_kb_per_tok", "KB"}, {"runtime.gc_pause_ms_total", "ms"}, {"runtime.peak_rss_mb", "MB"},
	{"loadgen.self_us_per_step", "us"}, {"loadgen.trace_overhead_frac", "ratio"},
}

// leg is one depth of the differential replay: the same request list run
// through a path that enters the stack one layer deeper. A layer's self
// time is its leg's median step minus the next deeper leg's.
type leg struct {
	name  string
	layer string
	depth int
	path  func(r *request) path
	kind  string // only requests of this kind ("" = all)
	unary bool   // drive streamed requests step by step (serve.Core.Step, StepInto)
	exact bool   // step outputs must equal the client leg's bit for bit
}

const (
	legClient  = "client"   // depth 1: the workload's own client path
	legCore    = "core"     // depth 2: serve.Core.Step in-process (Service, or Router)
	legNodeRPC = "node-rpc" // depth 2′: the owning node's Step over gRPC, router bypassed
	legNodeSvc = "node-svc" // the owning node's Service.Step in-process
	legSession = "session"  // depth 3: core.Session.StepInto
	legSpans   = "spans"    // depth 2′ of a sharded request: each span's Step on its node
)

func (b *bench) legs() []leg {
	client := leg{name: legClient, layer: b.clientLayer, depth: 1, exact: true,
		path: func(*request) path { return b.clients[0].path }}
	coreLeg := leg{name: legCore, layer: "serve", depth: 2, unary: true, exact: true,
		path: func(*request) path { return corePath{c: b.depth2} }}
	session := leg{name: legSession, layer: "core", depth: 3, unary: true, exact: true,
		path: func(r *request) path { return dbPath{db: b.dbFor(r)} }}
	if b.router == nil {
		return []leg{client, coreLeg, session}
	}
	coreLeg.layer = "cluster"
	// One SDK client straight to each node's gRPC listener, router bypassed.
	direct := map[*core.DB]path{}
	svcOf := map[*core.DB]*serve.Service{}
	for _, n := range b.nodes {
		cli, err := alayaclient.NewClient(alayaclient.WithGRPCAddr(n.addr))
		if err != nil {
			panic(err) // WithGRPCAddr is always supplied
		}
		b.closers = append(b.closers, func() { cli.Close() })
		direct[n.db], svcOf[n.db] = sdkPath{cli: cli}, n.svc
	}
	session.kind = "routed" // an unsharded session computes a sharded request differently
	return []leg{client, coreLeg,
		{name: legNodeRPC, layer: "serve/grpc", depth: 3, kind: "routed", unary: true, exact: true,
			path: func(r *request) path { return direct[b.dbFor(r)] }},
		{name: legNodeSvc, layer: "serve", depth: 4, kind: "routed", unary: true, exact: true,
			path: func(r *request) path { return corePath{c: svcOf[b.dbFor(r)]} }},
		session,
	}
}

// replayMax bounds the differential replay: the first replayMax requests of
// the workload (client 0's sequence), or fewer when the time budget ends.
const replayMax = 16

// replay runs the depth-differential part of a traced run and returns one
// recorder per leg.
func (b *bench) replay(legs []leg, budget time.Duration, maxRequests int) (map[string]*recorder, []string) {
	recs := map[string]*recorder{}
	for _, l := range legs {
		rec := newRecorder(b.m, l.layer, l.depth)
		rec.trace, rec.hash = true, true
		recs[l.name] = rec
	}
	if b.router != nil {
		recs[legSpans] = newRecorder(b.m, "serve", 3)
		recs[legSpans].trace = true
	}
	var violations []string
	deadline := time.Now().Add(budget)
	for n := 0; n < maxRequests; n++ {
		if n > 0 && budget > 0 && time.Now().After(deadline) {
			break
		}
		r := b.clients[0].next(0)
		// The replayed request leaves the served state as it found it: no
		// Store, so every leg opens its session over the same stored context.
		r.store, r.sampleSteps = false, nil
		for _, l := range legs {
			if l.kind != "" && l.kind != r.kind {
				continue
			}
			rr := *r
			if l.unary {
				rr.batch = 0
			}
			recs[l.name].run(l.path(r), &rr)
			if l.exact && l.name != legClient {
				if !equalHashes(recs[legClient].hashes[r.id], recs[l.name].hashes[r.id]) {
					violations = append(violations, fmt.Sprintf("request %d (%s): step outputs at leg %q differ from the client path's", r.id, r.kind, l.name))
				}
			}
		}
		if r.kind == "sharded" {
			if err := b.replaySpans(recs[legSpans], r); err != nil {
				violations = append(violations, fmt.Sprintf("request %d: span replay: %v", r.id, err))
			}
		}
	}
	for _, rec := range recs {
		violations = append(violations, rec.violations...)
	}
	return recs, violations
}

func equalHashes(a, b []uint64) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// replaySpans runs a sharded request's steps the way the router's nodes
// see them — one span session per range shard, fixed spans attend-only —
// by calling each span's Step directly on a node's Service, and records per
// step the slowest span: the floor under the router's sharded step.
func (b *bench) replaySpans(rec *recorder, r *request) error {
	spans := cluster.Spans(r.doc.Len(), b.spec.shardTokens)
	type open struct {
		svc *serve.Service
		id  int64
		fix bool
	}
	var sess []open
	defer func() {
		for _, s := range sess {
			s.svc.CloseSession(s.id)
		}
	}()
	for i, sp := range spans {
		svc := b.nodes[i%len(b.nodes)].svc
		resp, err := svc.CreateSession(&serve.CreateSessionRequest{Seed: r.doc.Seed, Tokens: r.doc.Tokens, SpanLo: sp.Lo, SpanHi: sp.Hi})
		if err != nil {
			return err
		}
		sess = append(sess, open{svc: svc, id: resp.SessionID, fix: !sp.Open()})
		if _, err := svc.Prefill(resp.SessionID); err != nil {
			return err
		}
	}
	for i := 0; i < r.steps; i++ {
		var slowest, start, end int64
		for _, s := range sess {
			t0 := nowNs()
			resp, err := s.svc.Step(s.id, &serve.StepRequest{Token: r.ctx.stepToks[i], Queries: r.ctx.queries[i], AttendOnly: s.fix})
			t1 := nowNs()
			if err != nil {
				return err
			}
			resp.Release()
			if t1-t0 > slowest {
				slowest, start, end = t1-t0, t0, t1
			}
		}
		rec.spans = append(rec.spans, span{Name: "span_step", Layer: "serve", Depth: 3, Request: r.id, Step: i, Start: start, End: end, Parent: -1})
	}
	return nil
}

// stepP50 is a leg's median time per decode step (µs), optionally of one
// request kind: the median step span, first steps excluded as they are from
// tpot — or, on a leg that streams, the median batch wall over its frames.
func stepP50(rec *recorder, kind string) float64 {
	if rec == nil {
		return 0
	}
	var steps, batches []float64
	for _, sp := range rec.spans {
		if kind != "" && (sp.Parent < 0 || rec.spans[sp.Parent].Name != "request:"+kind) {
			continue
		}
		switch {
		case sp.Name == "step" && sp.Step > 0:
			steps = append(steps, float64(sp.End-sp.Start)/1e3)
		case sp.Name == "stream_batch":
			batches = append(batches, float64(sp.End-sp.Start)/1e3)
		}
	}
	if len(steps) == 0 && len(batches) > 0 {
		return median(batches) / float64(rec.batch)
	}
	return median(steps)
}

func positive(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// tracedRun is the run behind -trace 1. Per-layer numbers come only from
// here, end-to-end numbers never do. It spends its budget in three parts:
// an untraced closed-loop phase and the same phase with spans recorded
// (their throughput difference is the tracing overhead; counters are
// snapshotted around the traced one), then the depth-differential replay
// and the inner-layer probes.
func (b *bench) tracedRun(o options, w io.Writer, setupS float64) (*result, error) {
	third := o.seconds / 3
	untraced := b.runPhase(third, o.requests, false, 0, 0.5)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	before := b.snapshot()
	traced := b.runPhase(third, o.requests, true, 0.5, 1)
	delta := b.snapshot().since(before)
	runtime.ReadMemStats(&ms1)

	legDefs := b.legs()
	legs, violations := b.replay(legDefs, time.Duration(third*float64(time.Second)), replayMaxFor(o))
	v := b.verify(traced.rec)
	b.checkState(traced.rec, delta, &v)
	v.violations = append(v.violations, violations...)

	vals := map[string]float64{}
	if err := b.probeInner(b.docs[0], vals); err != nil {
		return nil, fmt.Errorf("inner-layer probes: %w", err)
	}
	b.probeFrames(vals)
	rec := traced.rec
	steps := float64(rec.steps)

	// alayaclient: the client-observed spans everything below is subtracted
	// from — taken, like every leg, from the single-client replay, so that
	// step_us decomposes exactly into the self times below it.
	client, coreStep, session := legs[legClient], legs[legCore], legs[legSession]
	vals["alayaclient.step_us"] = stepP50(client, "")
	vals["alayaclient.create_us"] = median(client.spanDurations("create"))
	vals["alayaclient.stream_first_frame_us"] = median(client.spanDurations("stream_first_frame"))
	if b.spec.batch > 0 {
		vals["alayaclient.stream_gap_us"] = stepP50(client, "")
	}

	// Self times: a leg's median step minus the next deeper leg's.
	vals["core.step_us"] = stepP50(session, "")
	switch b.spec.name {
	case wlLongLocal:
		vals["serve.service.self_us"] = positive(stepP50(coreStep, "") - stepP50(session, ""))
	case wlShortHTTP:
		vals["serve.http.self_us"] = positive(stepP50(client, "") - stepP50(coreStep, ""))
		vals["serve.service.self_us"] = positive(stepP50(coreStep, "") - stepP50(session, ""))
	case wlChurn:
		vals["serve.grpc.stream_self_us_per_tok"] = positive(stepP50(client, "") - stepP50(coreStep, ""))
		vals["serve.service.self_us"] = positive(stepP50(coreStep, "") - stepP50(session, ""))
	case wlCluster:
		// One clean hop: the SDK over gRPC to a node minus that node's
		// Service.Step in-process. A routed step pays it twice (client to
		// router, router to node).
		vals["serve.grpc.unary_self_us"] = positive(stepP50(legs[legNodeRPC], "") - stepP50(legs[legNodeSvc], ""))
		vals["cluster.routed_self_us"] = positive(stepP50(coreStep, "routed") - stepP50(legs[legNodeRPC], ""))
		vals["serve.service.self_us"] = positive(stepP50(legs[legNodeSvc], "") - stepP50(session, ""))
		vals["cluster.sharded_step_us"] = stepP50(coreStep, "sharded")
		slow := median(legs[legSpans].spanDurations("span_step"))
		vals["cluster.sharded_slowest_span_us"] = slow
		vals["cluster.sharded_merge_self_us"] = positive(stepP50(coreStep, "sharded") - slow)
	}

	// Counts, as deltas over the traced phase.
	vals["serve.sched.avg_wave"] = ratio(delta.items, delta.waves)
	vals["serve.sched.max_wave"] = delta.maxWave
	vals["serve.sched.admitted"] = delta.admitted
	vals["serve.sched.rejected"] = delta.rejected
	vals["serve.endpoint.step_mean_us"] = ratio(delta.stepMillis, delta.stepCalls) * 1e3
	vals["serve.endpoint.step_max_us"] = delta.stepMaxMillis * 1e3
	vals["serve.endpoint.errors"] = delta.epErrs
	vals["cluster.fanout_calls_per_step"] = ratio(delta.fanoutCalls, steps)
	vals["cluster.merges"] = delta.merges
	vals["cluster.unavailable"] = delta.unavailable
	vals["cluster.retries"] = delta.retries
	if len(delta.nodeCalls) > 0 {
		lo, hi := delta.nodeCalls[0], delta.nodeCalls[0]
		for _, c := range delta.nodeCalls {
			lo, hi = math.Min(lo, c), math.Max(hi, c)
		}
		vals["cluster.node_call_imbalance"] = ratio(hi, lo)
	}
	queries := float64(rec.queries)
	var full, fine, flatN, filtered int64
	for p, n := range rec.plans {
		fullPlan, finePlan, flatPlan, filt := classifyPlan(p)
		full += fullPlan * n
		fine += finePlan * n
		flatN += flatPlan * n
		filtered += filt * n
	}
	vals["core.plan.full_frac"] = ratio(float64(full), queries)
	vals["core.plan.dipr_fine_frac"] = ratio(float64(fine), queries)
	vals["core.plan.dipr_flat_frac"] = ratio(float64(flatN), queries)
	vals["core.plan.filtered_frac"] = ratio(float64(filtered), queries)
	vals["core.retrieved_per_query"] = ratio(float64(rec.retrieved), queries)
	vals["core.attended_per_query"] = ratio(float64(rec.attended), queries)
	creates := float64(rec.ops[opCreate].sent)
	vals["core.reload_ms"] = ratio(delta.reloadNanos, delta.reloads) / 1e6
	vals["core.reload_share"] = ratio(delta.prefixSpillHits, creates)
	vals["core.prefix_lookups"] = delta.prefixLookups
	vals["core.prefix_hits"] = delta.prefixHits
	vals["core.prefix_spill_hits"] = delta.prefixSpillHits
	vals["core.cow_stores"] = delta.cowStores
	vals["core.evictions"] = delta.evictions
	vals["core.tier.spills"] = delta.spills
	vals["core.tier.spill_errors"] = delta.spillErrors
	vals["core.tier.reload_errors"] = delta.reloadErrors
	vals["core.tier.disk_mb"] = delta.diskBytes / 1e6
	vals["core.shared_prefix_mb"] = delta.sharedPrefixB / 1e6
	vals["storage.buffer.hit_rate"] = ratio(delta.bufHits, (delta.bufHits + delta.bufMisses))
	vals["storage.buffer.misses"] = delta.bufMisses

	// runtime and the generator itself.
	vals["runtime.alloc_kb_per_tok"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e3, steps)
	vals["runtime.gc_pause_ms_total"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	vals["runtime.peak_rss_mb"] = peakRSSMB()
	vals["loadgen.self_us_per_step"] = ratio(float64(rec.loopNs-rec.callNs)/1e3, steps)
	tokS := func(p phase) float64 { return float64(p.rec.steps) / p.wall.Seconds() }
	vals["loadgen.trace_overhead_frac"] = 1 - ratio(tokS(traced), tokS(untraced))

	all := traced.rec.spans
	for _, l := range legs {
		all = append(all, l.spans...)
	}
	if err := writeSpans(tracePath(o), all); err != nil {
		return nil, err
	}
	metrics := toMetrics(vals, perLayerMetrics)
	fmt.Fprintf(w, "untraced phase %.1f tok/s, traced phase %.1f tok/s; replayed %d requests over %d legs; %d spans written to %s\n",
		tokS(untraced), tokS(traced), legs[legClient].requests, len(legs), len(all), tracePath(o))
	fmt.Fprintf(w, "median step by leg (µs):")
	for _, l := range legDefs {
		fmt.Fprintf(w, "  %s %.0f", l.name, stepP50(legs[l.name], l.kind))
	}
	fmt.Fprintln(w)
	report(w, traced, delta, v, metrics, perLayerMetrics)
	sent, failed := rec.attempted()
	return &result{Correct: len(v.violations) == 0, Attempted: sent, Failed: failed, Metrics: metrics}, nil
}

func replayMaxFor(o options) int {
	if o.requests > 0 && o.requests < replayMax {
		return o.requests
	}
	return replayMax
}

// classifyPlan maps a plan string to its (full, dipr+fine, dipr+flat,
// filtered) indicator. A router-merged plan lists one plan per shard and
// counts as its first.
func classifyPlan(p string) (full, fine, flat, filtered int64) {
	if len(p) > 6 && p[:6] == "merge[" {
		p = p[6:]
		for i := range p {
			if p[i] == ' ' || p[i] == ']' {
				p = p[:i]
				break
			}
		}
	}
	switch p {
	case "full+none":
		full = 1
	case "dipr+fine":
		fine = 1
	case "dipr+flat":
		flat = 1
	case "dipr+fine+filter":
		fine, filtered = 1, 1
	case "dipr+flat+filter":
		flat, filtered = 1, 1
	}
	return
}

// probeFrames times the binary frame codec on the workload's own step
// shapes: one StepRequest as the client ships it and one StepResponse as
// the server answers it.
func (b *bench) probeFrames(vals map[string]float64) {
	d := b.docs[0]
	mc := b.m.Config()
	req := &serve.StepRequest{Token: d.stepToks[0], Queries: d.queries[0]}
	resp := &serve.StepResponse{ContextLen: d.inst.Doc.Len(), Layers: make([][]serve.AttentionResponse, mc.Layers)}
	for l := range resp.Layers {
		resp.Layers[l] = make([]serve.AttentionResponse, mc.QHeads)
		for h := range resp.Layers[l] {
			resp.Layers[l][h] = serve.AttentionResponse{Output: d.queries[0][l][h], Plan: "dipr+fine", Retrieved: 64, Attended: 128, LSE: 1}
		}
	}
	const reps = 256
	var reqFrame, respFrame []byte
	enc := timeMedian(reps, func(int) {
		reqFrame, _ = serve.MarshalFrame(req)
		respFrame, _ = serve.MarshalFrame(resp)
	})
	dec := timeMedian(reps, func(int) {
		var rq serve.StepRequest
		var rs serve.StepResponse
		serve.UnmarshalFrame(reqFrame, &rq)
		serve.UnmarshalFrame(respFrame, &rs)
	})
	vals["serve.frame.encode_us"] = enc
	vals["serve.frame.decode_us"] = dec
	vals["serve.frame.bytes_per_step"] = float64(len(reqFrame) + len(respFrame))
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1e3 // Linux reports KiB
}

// writeSpans writes the run's spans as one JSON document.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
