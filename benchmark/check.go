package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/model"
)

// verdict is what the output checks found. Any violation fails the run:
// a benchmark that silently times a different plan, or wrong outputs, is
// worse than no benchmark.
type verdict struct {
	outRelErr  float64 // mean relative L2 error of the sampled outputs vs the oracle
	samples    int
	accuracy   float64 // share of planted questions decoded correctly
	questions  int
	wrong      map[string]int // wrong answers by request kind/task profile
	violations []string
}

func (v *verdict) violate(format string, args ...interface{}) {
	v.violations = append(v.violations, fmt.Sprintf(format, args...))
}

// relErrTolerance is the fixed ceiling on mean out_rel_err per workload:
// exact plans (full attention, exact span attention + LSE merge) must match
// the oracle to float32 rounding; DIPR plans attend a bounded critical set,
// and the SQ8 plane adds its quantization error on top.
var relErrTolerance = map[string]float64{
	wlLongLocal: 4,
	wlShortHTTP: 1e-4,
	wlChurn:     3,
	wlCluster:   2,
}

// oracleKV is the exact fp32 key/value rows of one (layer, kv head) of a
// request's full document — prompt plus every token its steps append —
// generated here, never read back from the system under test.
type oracleKV struct{ keys, values [][]float32 }

func (b *bench) oracleKV(r *request, layer, kv int) oracleKV {
	full := &model.Document{Seed: r.doc.Seed, Tokens: append(append([]model.Token(nil), r.doc.Tokens...), r.ctx.stepToks[:r.steps]...)}
	o := oracleKV{keys: make([][]float32, full.Len()), values: make([][]float32, full.Len())}
	for i := range o.keys {
		o.keys[i] = b.m.KeyVector(full, i, layer, kv)
		o.values[i] = b.m.ValueVector(full, i, layer, kv)
	}
	return o
}

// denseAttention is softmax(q·K/√d)·V over rows [0, n) in float64.
func (o oracleKV) denseAttention(q []float32, n int) []float64 {
	logits := make([]float64, n)
	max := math.Inf(-1)
	scale := math.Sqrt(float64(len(q)))
	for i := 0; i < n; i++ {
		var dot float64
		for j, x := range q {
			dot += float64(x) * float64(o.keys[i][j])
		}
		logits[i] = dot / scale
		if logits[i] > max {
			max = logits[i]
		}
	}
	out := make([]float64, len(o.values[0]))
	var sum float64
	for i := 0; i < n; i++ {
		w := math.Exp(logits[i] - max)
		sum += w
		for j, x := range o.values[i] {
			out[j] += w * float64(x)
		}
	}
	for j := range out {
		out[j] /= sum
	}
	return out
}

// verify checks a phase's outputs: sampled step outputs against the dense
// oracle, planted questions decoded from retrieval-head outputs obtained
// through the workload's own client path, the expected plan mix, and every
// per-request expectation the recorder flagged.
func (b *bench) verify(rec *recorder) verdict {
	v := verdict{violations: append([]string(nil), rec.violations...), wrong: map[string]int{}}

	type key struct {
		r         *request
		layer, kv int
	}
	byReq := map[key][]outSample{}
	var order []key
	for _, s := range rec.samples {
		k := key{s.req, s.layer, s.head / b.m.GroupSize()}
		if _, ok := byReq[k]; !ok {
			order = append(order, k)
		}
		byReq[k] = append(byReq[k], s)
	}
	errs := make([][]float64, len(order))
	parallel(len(order), func(i int) {
		k := order[i]
		kv := b.oracleKV(k.r, k.layer, k.kv)
		for _, s := range byReq[k] {
			want := kv.denseAttention(k.r.ctx.queries[s.step][s.layer][s.head], k.r.doc.Len()+s.step+1)
			var num, den float64
			for j := range want {
				d := float64(s.out[j]) - want[j]
				num += d * d
				den += want[j] * want[j]
			}
			errs[i] = append(errs[i], math.Sqrt(num/den))
		}
	})
	var all []float64
	for _, e := range errs {
		all = append(all, e...)
	}
	v.samples = len(all)
	v.outRelErr = mean(all)
	if v.samples == 0 {
		v.violate("no step outputs were sampled for the oracle check")
	} else if tol := relErrTolerance[b.spec.name]; !(v.outRelErr <= tol) {
		v.violate("out_rel_err %.3g over %d samples exceeds the %s tolerance %.3g", v.outRelErr, v.samples, b.spec.name, tol)
	}

	correct := 0
	for _, a := range rec.answers {
		if b.m.DecodeAnswer(a.outs) == a.req.answer {
			correct++
		} else {
			v.wrong[a.req.kind+"/"+a.req.ctx.inst.Task]++
		}
	}
	v.questions = len(rec.answers)
	if v.questions == 0 {
		v.violate("no planted question was decoded")
	} else {
		v.accuracy = float64(correct) / float64(v.questions)
	}

	b.checkPlans(rec, &v)
	return v
}

// checkPlans asserts the workload's plan mix — the guard against timing a
// different plan than the workload's name promises.
func (b *bench) checkPlans(rec *recorder, v *verdict) {
	allowed := map[string]bool{}
	switch b.spec.name {
	case wlLongLocal:
		allowed["dipr+fine"], allowed["dipr+flat"] = true, true
	case wlShortHTTP:
		allowed["full+none"] = true
	case wlChurn:
		for _, p := range []string{"dipr+fine", "dipr+flat", "dipr+fine+filter", "dipr+flat+filter"} {
			allowed[p] = true
		}
		if rec.plans["dipr+fine+filter"]+rec.plans["dipr+flat+filter"] == 0 && rec.ttftByKind["diverge"] != nil {
			v.violate("diverging requests ran but no +filter plan was executed")
		}
	case wlCluster:
		// Sharded steps come back as one merged plan per head.
		for _, p := range []string{"dipr+fine", "dipr+flat", "merge[dipr+fine | dipr+fine]", "merge[dipr+flat | dipr+flat]"} {
			allowed[p] = true
		}
	}
	var bad []string
	for p, n := range rec.plans {
		if !allowed[p] {
			bad = append(bad, fmt.Sprintf("%s×%d", p, n))
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		v.violate("%s executed plans outside its mix: %s", b.spec.name, strings.Join(bad, ", "))
	}
}

// reloadShareMin/Max bound churn-sq8-stream's core.reload_share: the share
// of creates whose prefix came back from the spill tier. Outside the band
// the working set no longer exceeds the cache the way the workload means it
// to. Only judged on a phase long enough for the share to be meaningful.
const (
	reloadShareMin, reloadShareMax = 0.15, 0.35
	reloadShareMinCreates          = 40
)

// checkState asserts what the program's own counters must show for the
// workload to be what its name says.
func (b *bench) checkState(rec *recorder, delta counters, v *verdict) {
	switch b.spec.name {
	case wlChurn:
		creates := rec.ops[opCreate].sent
		share := ratio(delta.prefixSpillHits, float64(creates))
		if creates >= reloadShareMinCreates && (share < reloadShareMin || share > reloadShareMax) {
			v.violate("core.reload_share %.3f (%.0f of %d creates) outside [%.1f, %.1f]", share, delta.prefixSpillHits, creates, reloadShareMin, reloadShareMax)
		}
		if rec.reuseMisses*10 > creates {
			v.violate("%d of %d creates could not reuse their base (cap 10%%)", rec.reuseMisses, creates)
		}
	case wlCluster:
		if rec.ttftByKind["sharded"] != nil && delta.fanouts == 0 {
			v.violate("sharded requests ran but the router fanned out no call")
		}
		for i, c := range delta.nodeCalls {
			if c == 0 {
				v.violate("node %d served no call: span sessions did not land on both nodes", i)
			}
		}
	}
	if delta.rejected > 0 {
		v.violate("scheduler rejected %.0f steps", delta.rejected)
	}
}
