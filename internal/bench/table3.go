package bench

import (
	"fmt"
	"io"

	"repro/internal/attention"
	"repro/internal/index"
	"repro/internal/index/flat"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/workload"
)

func init() {
	register("table3", "tokens k required per task for top-k to match full attention (Table 3)", runTable3)
}

// kLadder is the set of candidate k values searched by Table 3 and swept by
// Figure 6.
var kLadder = []int{1, 2, 5, 10, 20, 35, 50, 75, 100, 150, 200, 300, 400, 600}

// runTable3 reproduces Table 3: the smallest k at which top-k sparse
// attention matches full attention's accuracy, per LongBench-like task.
// Exact (flat) top-k isolates the query-type question from index recall.
func runTable3(s Scale, w io.Writer) error {
	m := model.New(s.Model)
	win := attention.Window{Sinks: 16, Recent: 32}

	fmt.Fprintf(w, "Table 3: k required per task (context %d tokens, %d trials)\n\n", s.ContextLen, s.Trials)
	t := &table{header: []string{"task", "k", "proportion", "planted criticals"}}

	for _, p := range workload.LongBench() {
		insts := make([]workload.Instance, s.Trials)
		caches := make([]*cacheBundle, s.Trials)
		fullCorrect := 0
		for i := range insts {
			insts[i] = workload.Generate(p, s.Seed+uint64(100*i), s.ContextLen, 64, s.Model.Vocab)
			caches[i] = newCacheBundle(m, insts[i].Doc)
			out := workload.Evaluate(m, insts[i], caches[i].fullAttend())
			if out.Correct {
				fullCorrect++
			}
		}

		needK := kLadder[len(kLadder)-1]
		for _, k := range kLadder {
			correct := 0
			for i := range insts {
				out := workload.Evaluate(m, insts[i], caches[i].topKAttend(win, k))
				if out.Correct {
					correct++
				}
			}
			if correct >= fullCorrect {
				needK = k
				break
			}
		}
		t.add(p.Name, fmt.Sprintf("%d", needK),
			fmt.Sprintf("%.2f%%", 100*float64(needK)/float64(s.ContextLen)),
			fmt.Sprintf("%d", p.Critical))
	}
	t.write(w)
	fmt.Fprintln(w, "\npaper: k spans 20 (TriviaQA, 0.24%) to 350 (Qasper, 9.67%) — no single k fits all tasks")
	return nil
}

// cacheBundle holds one instance's KV cache and exposes attend functions
// shared by several experiments.
type cacheBundle struct {
	m     *model.Model
	doc   *model.Document
	cache *kvcache.Cache
}

func newCacheBundle(m *model.Model, doc *model.Document) *cacheBundle {
	return &cacheBundle{m: m, doc: doc, cache: m.BuildKV(doc)}
}

// fullAttend returns an Attend over the whole context.
func (b *cacheBundle) fullAttend() workload.Attend {
	return func(layer, qHead int, q []float32) ([]float32, []int) {
		kv := b.m.KVGroup(qHead)
		return attention.Full(q, b.cache.Keys(layer, kv), b.cache.Values(layer, kv)), nil
	}
}

// topKAttend returns an Attend that uses exact top-k retrieval plus the
// window.
func (b *cacheBundle) topKAttend(win attention.Window, k int) workload.Attend {
	return func(layer, qHead int, q []float32) ([]float32, []int) {
		kv := b.m.KVGroup(qHead)
		retrieved := index.IDs(flat.Make(b.cache.Keys(layer, kv), 1).TopK(q, k))
		out := win.SparseWindowed(q, b.cache.Keys(layer, kv), b.cache.Values(layer, kv), retrieved)
		return out, win.Union(retrieved, b.cache.SeqLen(layer))
	}
}

// diprAttend returns an Attend that uses exact DIPR retrieval plus the
// window, reporting the retrieved count through sizes (appended per call).
func (b *cacheBundle) diprAttend(win attention.Window, beta float32, workers int, sizes *[]int) workload.Attend {
	return func(layer, qHead int, q []float32) ([]float32, []int) {
		kv := b.m.KVGroup(qHead)
		fx := flat.New(b.cache.Keys(layer, kv), workers)
		cands, _ := fx.DIPR(q, beta)
		retrieved := index.IDs(cands)
		if sizes != nil {
			*sizes = append(*sizes, len(retrieved))
		}
		out := win.SparseWindowed(q, b.cache.Keys(layer, kv), b.cache.Values(layer, kv), retrieved)
		return out, win.Union(retrieved, b.cache.SeqLen(layer))
	}
}
