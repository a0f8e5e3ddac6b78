package core

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/pool"
)

// This file is the cross-session decode primitive behind the serving
// layer's continuous-batching scheduler: where step.go collapses one
// session's decode step into a single fan-out, StepWave collapses the
// steps of *many* sessions into one. A wave of W single-token steps on a
// model with L layers and H query heads is one task set over the worker
// pool — up to W×L×H tasks, fewer where a layer's KV groups each run as
// one task — so the pool saturates even when every tenant decodes at
// batch size 1, which is exactly the multi-tenant serving shape the
// decoupled-attention architecture targets.

// StepItem is one session's contribution to a decode wave: the generated
// token to ingest plus the full [layer][head] query grid and the result
// block to fill. Sess must be exclusively held by the caller for the
// duration of the wave (the serving layer's session lock), and distinct
// items must name distinct sessions.
type StepItem struct {
	Sess    *Session
	Token   model.Token
	Queries [][][]float32
	Out     [][]AttentionResult
	// AttendOnly skips the token ingest: the item scores its queries over
	// the session's current context unchanged — the fixed-span shard leg
	// of a routed decode step.
	AttendOnly bool
}

// Run executes the item alone on the calling goroutine: StepInto, or
// AttentionAllLayersInto when AttendOnly. It is a wave of one, and what
// the serving layer runs for a step that does not wait on a wave.
func (it *StepItem) Run() {
	if it.AttendOnly {
		it.Sess.AttentionAllLayersInto(it.Queries, it.Out)
	} else {
		it.Sess.StepInto(it.Token, it.Queries, it.Out)
	}
}

// StepWave runs one decode step for every item as a single shared
// fan-out over p. Semantically each item is exactly item.Sess.StepInto —
// ingest the token, then attention for every layer and head — and each
// item's results are bitwise-identical to the serial call (the same
// determinism contract as AttentionAllLayersInto). The difference is
// scheduling: all items' tokens ingest concurrently, then every item's
// decode tasks — built per layer exactly as AttentionAllLayersInto builds
// them, one per (layer, KV group) on group-planned layers and one per
// (layer, head) elsewhere — compete for the same pool slots, so a
// straggling session no longer leaves workers idle between steps.
//
// All items must share the DB's model geometry; per-item query grids are
// validated with the same panics StepInto raises. An empty wave is a
// no-op.
func StepWave(p *pool.Pool, items []StepItem) {
	switch len(items) {
	case 0:
		return
	case 1:
		// One tenant: identical to the serial step, no wave machinery.
		items[0].Run()
		return
	}

	layers := len(items[0].Queries)
	heads := 0
	if layers > 0 {
		heads = len(items[0].Queries[0])
	}
	for i := range items {
		it := &items[i]
		if len(it.Queries) != layers {
			panic(fmt.Sprintf("core: StepWave item %d has %d query layers, item 0 has %d", i, len(it.Queries), layers))
		}
		if len(it.Out) != layers {
			panic(fmt.Sprintf("core: StepWave item %d got %d result rows for %d layers", i, len(it.Out), layers))
		}
		for l := range it.Queries {
			if len(it.Queries[l]) != heads {
				panic(fmt.Sprintf("core: StepWave item %d layer %d has %d heads, want %d", i, l, len(it.Queries[l]), heads))
			}
			if len(it.Out[l]) != heads {
				panic(fmt.Sprintf("core: StepWave item %d layer %d got %d result slots for %d heads", i, l, len(it.Out[l]), heads))
			}
		}
	}

	// Phase 1: ingest every item's token. Sessions are distinct, so the
	// per-item work is independent; each AppendToken fans its own
	// per-layer ingest, which nests safely (a saturated pool degrades to
	// inline execution).
	p.ForEach(len(items), func(i int) {
		if items[i].AttendOnly {
			return
		}
		items[i].Sess.AppendToken(items[i].Token)
	})

	// Phase 2: one combined fan-out over every item's decode tasks, one
	// pooled decode state per worker for the whole wave. The wave borrows
	// its first item's task list.
	tasks := items[0].Sess.takeTasks()
	for i := range items {
		it := &items[i]
		for l := 0; l < layers; l++ {
			tasks = it.Sess.appendLayerTasks(tasks, l, it.Queries[l], it.Out[l])
		}
	}
	runTasks(p, tasks)
	items[0].Sess.putTasks(tasks)
}
