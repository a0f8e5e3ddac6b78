// Package baselines implements the sparse-attention methods AlayaDB is
// compared against in §9: full attention, StreamingLLM [65] (window only),
// InfLLM [63] (coarse block retrieval) and RetrievalAttention-style top-k
// [45] (graph retrieval with fixed k), all over a common Assets bundle so
// Table 5 / Figure 9 runs are apples to apples. The DIPRS row is AlayaDB
// itself: Assets.Store imports the instance into a core.DB, and DIPRS
// attends through the core.Session it opens, so the figures score the
// engine a request runs. The TTFT baselines of Figure 10 (no-reuse
// prefill, LMCache-style KV loading) live in prefill.go and lmcache.go.
package baselines

import (
	"fmt"

	"repro/internal/attention"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/index/coarse"
	"repro/internal/kvcache"
	"repro/internal/model"
)

// Assets bundles everything the methods share for one context: the
// substrate, the document, its KV cache, the coarse block indexes, and —
// once stored — the core.DB holding the context with its GQA-shared graph
// indexes (one per layer × kv head) and one session over it.
type Assets struct {
	Model  *model.Model
	Doc    *model.Document
	Cache  *kvcache.Cache
	Coarse []*coarse.Index

	db   *core.DB
	ctx  *core.Context
	sess *core.Session
}

// NewAssets generates the KV cache for doc. Coarse indexes and the stored
// context are built on demand.
func NewAssets(m *model.Model, doc *model.Document) *Assets {
	return &Assets{Model: m, Doc: doc, Cache: m.BuildKV(doc)}
}

// Store imports the document and its KV cache into one core.DB configured
// by cfg — building the graph indexes TopK and DIPRS retrieve through —
// and opens one session over the stored context for DIPRS. Store fills in
// cfg.Model and sets cfg.LongThreshold to 1 so every context length
// retrieves: the optimizer plans dipr+flat on layer 0 and dipr+fine on
// every later layer.
func (a *Assets) Store(cfg core.Config) error {
	cfg.Model = a.Model
	cfg.LongThreshold = 1
	db, err := core.New(cfg)
	if err != nil {
		return err
	}
	ctx, err := db.Import(a.Doc, a.Cache)
	if err != nil {
		return err
	}
	a.db, a.ctx = db, ctx
	a.sess, _ = db.CreateSession(a.Doc)
	return nil
}

// BuildCoarse constructs block indexes for the InfLLM method. Bound mode
// (Quest-style per-dimension min/max bounds) spots single-needle blocks
// that a mean representative would wash out.
func (a *Assets) BuildCoarse(blockSize int, mode coarse.ScoreMode) {
	mc := a.Model.Config()
	a.Coarse = make([]*coarse.Index, mc.Layers*mc.KVHeads)
	for l := 0; l < mc.Layers; l++ {
		for kv := 0; kv < mc.KVHeads; kv++ {
			a.Coarse[l*mc.KVHeads+kv] = coarse.New(a.Cache.Keys(l, kv), blockSize, mode)
		}
	}
}

// windowBytes is the device footprint of a sink+recent window.
func windowBytes(m *model.Model, w attention.Window, n int) int64 {
	mc := m.Config()
	return int64(w.Size(n)) * int64(mc.Layers) * int64(mc.KVHeads) * int64(mc.HeadDim) * 4 * 2
}

// Method is a sparse-attention method under evaluation: it produces one
// head's attention output and reports the attended positions (nil = whole
// context) plus its device-memory footprint.
type Method interface {
	Name() string
	// Attend computes the attention output of q at (layer, qHead).
	Attend(layer, qHead int, q []float32) (out []float32, attended []int)
	// DeviceBytes is the method's device-resident footprint beyond model
	// weights (KV, window, representatives, cached blocks).
	DeviceBytes() int64
}

// --- Full attention ---

// Full keeps the whole KV cache on device and computes exact attention.
type Full struct{ A *Assets }

// Name implements Method.
func (f *Full) Name() string { return "Full Attention" }

// Attend implements Method.
func (f *Full) Attend(layer, qHead int, q []float32) ([]float32, []int) {
	kv := f.A.Model.KVGroup(qHead)
	return attention.Full(q, f.A.Cache.Keys(layer, kv), f.A.Cache.Values(layer, kv)), nil
}

// DeviceBytes implements Method.
func (f *Full) DeviceBytes() int64 { return f.A.Cache.Bytes() }

// --- StreamingLLM ---

// StreamingLLM attends only the sink+recent window and drops everything
// else.
type StreamingLLM struct {
	A      *Assets
	Window attention.Window
}

// Name implements Method.
func (s *StreamingLLM) Name() string { return "StreamingLLM" }

// Attend implements Method.
func (s *StreamingLLM) Attend(layer, qHead int, q []float32) ([]float32, []int) {
	kv := s.A.Model.KVGroup(qHead)
	n := s.A.Cache.SeqLen(layer)
	idx := s.Window.Indices(n)
	out := attention.Sparse(q, s.A.Cache.Keys(layer, kv), s.A.Cache.Values(layer, kv), idx)
	return out, idx
}

// DeviceBytes implements Method.
func (s *StreamingLLM) DeviceBytes() int64 {
	return windowBytes(s.A.Model, s.Window, s.A.Cache.SeqLen(0))
}

// --- InfLLM ---

// InfLLM retrieves whole blocks through coarse representatives and caches
// them on device alongside the window.
type InfLLM struct {
	A      *Assets
	Window attention.Window
	Budget int // retrieved tokens per query (block-granular)
}

// Name implements Method.
func (i *InfLLM) Name() string { return "InfLLM" }

// Attend implements Method.
func (i *InfLLM) Attend(layer, qHead int, q []float32) ([]float32, []int) {
	if i.A.Coarse == nil {
		panic("baselines: InfLLM requires Assets.BuildCoarse")
	}
	m := i.A.Model
	kv := m.KVGroup(qHead)
	ix := i.A.Coarse[layer*m.Config().KVHeads+kv]
	n := i.A.Cache.SeqLen(layer)
	retrieved := ix.SelectTokens(q, i.Budget)
	out := i.Window.SparseWindowed(q, i.A.Cache.Keys(layer, kv), i.A.Cache.Values(layer, kv), retrieved)
	return out, i.Window.Union(retrieved, n)
}

// DeviceBytes implements Method: representatives + resident retrieved
// blocks + window.
func (i *InfLLM) DeviceBytes() int64 {
	if i.A.Coarse == nil {
		return 0
	}
	mc := i.A.Model.Config()
	var reps int64
	for _, ix := range i.A.Coarse {
		reps += ix.RepresentativeBytes()
	}
	blocks := int64(i.Budget) * int64(mc.HeadDim) * 4 * 2 * int64(mc.Layers) * int64(mc.KVHeads)
	return reps + blocks + windowBytes(i.A.Model, i.Window, i.A.Cache.SeqLen(0))
}

// --- Top-k (RetrievalAttention-style) ---

// TopK retrieves a fixed number of critical tokens through the stored
// context's graph index on the host; only the window lives on device.
type TopK struct {
	A      *Assets
	Window attention.Window
	K      int
}

// Name implements Method.
func (t *TopK) Name() string { return fmt.Sprintf("Top%d", t.K) }

// Attend implements Method.
func (t *TopK) Attend(layer, qHead int, q []float32) ([]float32, []int) {
	if t.A.ctx == nil {
		panic("baselines: TopK requires Assets.Store")
	}
	kv := t.A.Model.KVGroup(qHead)
	n := t.A.Cache.SeqLen(layer)
	retrieved := index.IDs(t.A.ctx.Graph(t.A.db, layer, qHead).TopK(q, t.K))
	out := t.Window.SparseWindowed(q, t.A.Cache.Keys(layer, kv), t.A.Cache.Values(layer, kv), retrieved)
	return out, t.Window.Union(retrieved, n)
}

// DeviceBytes implements Method.
func (t *TopK) DeviceBytes() int64 {
	return windowBytes(t.A.Model, t.Window, t.A.Cache.SeqLen(0))
}

// --- DIPRS ---

// DIPRS is AlayaDB: Attend is core.Session.Attention on the session
// Assets.Store opened, so the plan, the β band, its result cap, the window
// seed and the partial merge are exactly what a served decode step runs.
type DIPRS struct{ A *Assets }

// Name implements Method.
func (d *DIPRS) Name() string { return "DIPRS" }

// Attend implements Method. The attended set is the session's window
// joined with the positions it retrieved.
func (d *DIPRS) Attend(layer, qHead int, q []float32) ([]float32, []int) {
	if d.A.sess == nil {
		panic("baselines: DIPRS requires Assets.Store")
	}
	res := d.A.sess.Attention(layer, qHead, q)
	return res.Output, d.A.db.Window().Union(res.RetrievedIDs, d.A.Cache.SeqLen(layer))
}

// DeviceBytes implements Method: the session's device window.
func (d *DIPRS) DeviceBytes() int64 {
	if d.A.db == nil {
		return 0
	}
	return windowBytes(d.A.Model, d.A.db.Window(), d.A.Cache.SeqLen(0))
}
