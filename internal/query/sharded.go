package query

import (
	"math"

	"repro/internal/index"
	"repro/internal/pool"
)

// This file runs DIPRS over a range-sharded index: one graph per contiguous
// row span of the context, probed in parallel, with the per-shard β-bands
// merged into the global band. The correctness argument is the band-superset
// one from the flat SQ8 path: each shard keeps its band at localMax − β, and
// localMax ≤ globalMax makes that threshold no tighter than globalMax − β,
// so a shard's kept set is a superset of that shard's members of the global
// band. The merge re-filters the union at globalMax − β with the exact
// scores DIPRS already reports, so no candidate any shard surfaced is lost
// to sharding; what can change versus a monolithic graph is only which
// nodes the (approximate) traversals visit — the same recall caveat a
// single graph already carries, pinned by TestDIPRSShardsRecallVsExact.

// ShardedState is the reusable working set of a sharded DIPRS probe: one
// SearchState per shard (each serves exactly one goroutine of the fan-out),
// the per-shard results, and the merge heap/output. The zero value is
// ready; a state serves one logical search at a time.
type ShardedState struct {
	states  []SearchState
	results []Result
	heap    index.MinHeap
	out     []index.Candidate
}

// grow makes room for n shards, retaining warm per-shard arenas.
func (st *ShardedState) grow(n int) {
	if cap(st.states) < n {
		states := make([]SearchState, n)
		copy(states, st.states)
		st.states = states
	}
	st.states = st.states[:n]
	if cap(st.results) < n {
		st.results = make([]Result, n)
	}
	st.results = st.results[:n]
}

// DIPRSShards runs one DIPRS per shard graph — fanned across p — and merges
// the per-shard critical sets into the global β-band. gs[i] indexes the
// rows of span i, whose global ids start at offs[i]; returned candidate ids
// are global. The caller's InitialMax (a lower bound on the *global*
// maximum) seeds every shard — it only prunes harder, since each shard's
// band is re-filtered at the merged maximum anyway. cfg.Filter sees global
// ids. cfg.MaxResults bounds the merged set; each shard also keeps up to
// MaxResults locally, which preserves the global top-MaxResults (a global
// top-R candidate is necessarily in its own shard's top-R). cfg.MaxExplore
// caps each shard independently.
//
// Result.Critical aliases st and is valid until the next search; Explored
// and Reranked are summed over shards; MaxIP is the global maximum.
func DIPRSShards(st *ShardedState, p *pool.Pool, gs []Graph, offs []int, q []float32, cfg DIPRSConfig) Result {
	if len(gs) != len(offs) {
		panic("query: DIPRSShards graph/offset length mismatch")
	}
	cfg.defaults()
	if len(gs) == 0 {
		return Result{MaxIP: float32(math.Inf(-1))}
	}
	n := len(gs)
	st.grow(n)
	p.ForEach(n, func(i int) {
		scfg := cfg
		if f := cfg.Filter; f != nil {
			off := int32(offs[i])
			scfg.Filter = func(id int32) bool { return f(id + off) }
		}
		st.results[i] = DIPRSWith(&st.states[i], gs[i], q, scfg)
	})

	res := Result{MaxIP: float32(math.Inf(-1))}
	for i := range st.results {
		r := &st.results[i]
		res.Explored += r.Explored
		res.Reranked += r.Reranked
		if r.MaxIP > res.MaxIP {
			res.MaxIP = r.MaxIP
		}
	}
	// Re-filter the union at the global maximum. Per-shard Critical scores
	// are exact fp32 in both the fp32 and SQ8 planes (the quantized
	// traversal reranks its band before returning), so this threshold is
	// the same exact-score band a monolithic search would apply.
	threshold := res.MaxIP - cfg.Beta
	band := 0
	for i := range st.results {
		for _, c := range st.results[i].Critical {
			if c.Score >= threshold {
				band++
			}
		}
	}
	keep := band
	if cfg.MaxResults > 0 && cfg.MaxResults < keep {
		keep = cfg.MaxResults
	}
	h := st.heap[:0]
	for i := range st.results {
		off := int32(offs[i])
		for _, c := range st.results[i].Critical {
			if c.Score >= threshold {
				h.PushBounded(index.Candidate{ID: c.ID + off, Score: c.Score}, keep)
			}
		}
	}
	st.heap = h[:0]
	st.out = h.SortedInto(st.out)
	res.Critical = st.out
	return res
}
