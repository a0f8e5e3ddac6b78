package core

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/query"
)

// This file is the batched decode-step entry point behind the v2 serving
// API: one call ingests a generated token and computes attention for every
// (layer, head) of the model, so a serving layer can answer a whole decode
// step in a single round trip instead of one update plus one attention_all
// per layer.

// decodeTask is one unit of a decode fan-out: one query head of one layer,
// or — for a layer whose plan scores every indexed-prefix key on the fp32
// plane (groupPlan) — all the query heads of one KV group, which share one
// multi-query pass over the group's keys.
type decodeTask struct {
	s     *Session
	layer int
	head  int  // first query head
	group bool // run qs as a group task under plan
	plan  query.Plan
	qs    [][]float32 // qs[k] is query head head+k's query
	out   []AttentionResult
}

func (t *decodeTask) run(ds *decodeState) {
	if t.group {
		t.s.attendGroup(ds, t.plan, t.layer, t.head, t.qs, t.out)
		return
	}
	t.s.attentionInto(ds, t.layer, t.head, t.qs[0], &t.out[0])
}

// appendLayerTasks is the one builder of decode task lists. It plans layer
// once: a layer planned full+none, or dipr+flat, on an fp32 plane gets one
// task per (layer, KV group); every other layer one task per (layer,
// head), which plans itself. qs and out are the layer's queries and
// results, indexed by query head.
func (s *Session) appendLayerTasks(tasks []decodeTask, layer int, qs [][]float32, out []AttentionResult) []decodeTask {
	if plan, ok := s.groupPlan(layer); ok {
		g := s.db.cfg.Model.GroupSize()
		for h := 0; h < len(qs); h += g {
			e := min(h+g, len(qs))
			tasks = append(tasks, decodeTask{s: s, layer: layer, head: h, group: true, plan: plan, qs: qs[h:e], out: out[h:e]})
		}
		return tasks
	}
	for h := range qs {
		tasks = append(tasks, decodeTask{s: s, layer: layer, head: h, qs: qs[h : h+1], out: out[h : h+1]})
	}
	return tasks
}

// runTasks runs a task list across p with one pooled decode state per
// worker. On the Serial pool, or for a single task, it runs inline on one
// state and constructs no closure, so a warm step allocates nothing.
func runTasks(p *pool.Pool, tasks []decodeTask) {
	if p.Size() == 0 || len(tasks) == 1 {
		ds := getDecodeState()
		for i := range tasks {
			tasks[i].run(ds)
		}
		putDecodeState(ds)
		return
	}
	p.ForEachScratch(len(tasks), getDecodeStateAny, putDecodeStateAny,
		func(sc interface{}, i int) {
			tasks[i].run(sc.(*decodeState))
		})
}

// takeTasks takes the session's task list, empty, for one fan-out; a
// concurrent fan-out on the same session gets nil and grows its own.
func (s *Session) takeTasks() []decodeTask {
	s.mu.Lock()
	t := s.tasks
	s.tasks = nil
	s.mu.Unlock()
	return t[:0]
}

// putTasks hands a task list back for the next fan-out, dropping its
// references to the caller's queries and results.
func (s *Session) putTasks(t []decodeTask) {
	clear(t)
	s.mu.Lock()
	if cap(t) > cap(s.tasks) {
		s.tasks = t[:0]
	}
	s.mu.Unlock()
}

// AttentionAllLayersInto computes attention for every query head of every
// layer in one fan-out: qs and out are indexed [layer][head], every layer
// must carry the same head count, and len(out[l]) must equal len(qs[l]).
// Each layer is planned once (appendLayerTasks): a full+none or dipr+flat
// layer on the fp32 plane contributes one task per KV group, whose heads
// share one pass over the group's keys; any other layer one task per
// head. The whole task set fans across the DB's worker pool with one
// pooled decode state per worker — deeper layers' tasks start as soon as
// a worker frees up, rather than barriering layer by layer the way
// repeated AttentionAllInto calls do. Buffer reuse and determinism follow
// AttentionAllInto: bitwise-identical to per-head Attention calls on an
// unconstrained device, with the same device-sampling caveat under a tight
// budget.
func (s *Session) AttentionAllLayersInto(qs [][][]float32, out [][]AttentionResult) {
	if len(out) != len(qs) {
		panic(fmt.Sprintf("core: AttentionAllLayersInto got %d result rows for %d layers", len(out), len(qs)))
	}
	if len(qs) == 0 {
		return
	}
	heads := len(qs[0])
	for l := range qs {
		if len(qs[l]) != heads {
			panic(fmt.Sprintf("core: AttentionAllLayersInto layer %d has %d heads, layer 0 has %d", l, len(qs[l]), heads))
		}
		if len(out[l]) != len(qs[l]) {
			panic(fmt.Sprintf("core: AttentionAllLayersInto layer %d got %d result slots for %d heads", l, len(out[l]), len(qs[l])))
		}
	}
	tasks := s.takeTasks()
	for l := range qs {
		tasks = s.appendLayerTasks(tasks, l, qs[l], out[l])
	}
	runTasks(s.db.cfg.Pool, tasks)
	s.putTasks(tasks)
}

// StepInto is one whole decode step: ingest the generated token across all
// layers (AppendToken), then compute attention for every layer and head
// over the extended context, writing into out as AttentionAllLayersInto
// does. It is exactly equivalent to AppendToken followed by one
// AttentionAllInto per layer — the v1 protocol's 1+Layers round trips —
// collapsed into a single call.
func (s *Session) StepInto(tok model.Token, qs [][][]float32, out [][]AttentionResult) {
	s.AppendToken(tok)
	s.AttentionAllLayersInto(qs, out)
}
