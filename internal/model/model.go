// Package model implements the synthetic decoder-only transformer substrate
// that stands in for the paper's Llama-3-8B-Instruct-262k.
//
// The substrate does not run matrix-multiply forward passes. Instead it
// synthesizes the quantities that sparse attention actually interacts with —
// per-(layer, head) query, key and value vectors — with the statistics
// observed in real long-context models:
//
//   - a small set of *critical* tokens whose keys align with the query
//     (the premise of retrieval-based sparse attention, §2);
//   - *attention sinks*: initial tokens with large, query-aligned keys;
//   - *recency*: queries partially aligned with the most recent keys
//     (together these motivate the window cache, §7.1);
//   - *head temperament*: per-head sharpness spanning diffuse heads that
//     spread attention over tens of thousands of tokens and sharp retrieval
//     heads that concentrate on dozens (Figure 5), with layer 0 diffuse
//     (the optimizer's layer-1 rule in Figure 8);
//   - *GQA*: query heads grouped onto fewer kv heads (§7.2), with query
//     distribution distinct from key distribution (the OOD property that
//     motivates RoarGraph).
//
// All vectors are deterministic functions of (seed, coordinates), so any
// experiment is exactly reproducible and generation order never matters.
package model

import (
	"fmt"
	"sync"

	"repro/internal/kvcache"
	"repro/internal/vec"
)

// Config describes the shape and temperament of a synthetic model.
type Config struct {
	Layers  int // number of transformer layers
	QHeads  int // query heads per layer
	KVHeads int // key/value heads per layer (GQA groups); must divide QHeads
	HeadDim int // per-head dimensionality
	Vocab   int // payload vocabulary size used by value vectors

	// SinkTokens is the number of initial attention-sink positions.
	SinkTokens int

	// Seed namespaces every deterministic draw made by the model.
	Seed uint64
}

// Default returns the configuration used by most tests and examples: a
// scaled-down Llama-3-8B shape (the paper's model is 32 layers × 32 query
// heads × 8 kv heads × 128 dims).
func Default() Config {
	return Config{
		Layers:     8,
		QHeads:     8,
		KVHeads:    2,
		HeadDim:    128,
		Vocab:      128,
		SinkTokens: 4,
		Seed:       1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Layers <= 0:
		return fmt.Errorf("model: Layers must be positive, got %d", c.Layers)
	case c.QHeads <= 0:
		return fmt.Errorf("model: QHeads must be positive, got %d", c.QHeads)
	case c.KVHeads <= 0:
		return fmt.Errorf("model: KVHeads must be positive, got %d", c.KVHeads)
	case c.QHeads%c.KVHeads != 0:
		return fmt.Errorf("model: KVHeads (%d) must divide QHeads (%d)", c.KVHeads, c.QHeads)
	case c.HeadDim < 8:
		return fmt.Errorf("model: HeadDim must be >= 8, got %d", c.HeadDim)
	case c.Vocab < 2:
		return fmt.Errorf("model: Vocab must be >= 2, got %d", c.Vocab)
	case c.SinkTokens < 0:
		return fmt.Errorf("model: SinkTokens must be >= 0, got %d", c.SinkTokens)
	}
	return nil
}

// Geometry weights. These are fixed model-family constants (analogous to a
// trained checkpoint); heads differ through sharpness, not through these.
const (
	keyTopicWeight  = 10 // topic component of a key
	keyNoiseWeight  = 4  // idiosyncratic component of a key
	sinkKeyWeight   = 10 // extra sink-direction mass on sink-token keys
	sinkQueryWeight = 3  // sink-direction mass on every query
	recencyWeight   = 9  // query alignment with recent tokens' noise directions
	recencyDecay    = 0.5
	recencySpan     = 8 // how many trailing tokens a query leans on
	valueNoise      = 0.25
)

// HeadRef identifies a (layer, query head) pair.
type HeadRef struct {
	Layer int
	QHead int
}

// Model is an immutable synthetic transformer. Safe for concurrent use.
type Model struct {
	cfg   Config
	sharp []float64 // sharpness in [0,1] per layer*QHeads+qHead

	dirMu    sync.RWMutex
	topicDir map[uint64][]float32 // cached unit directions
}

// New builds a model from cfg. It panics if cfg is invalid (configurations
// are compile-time constants in practice; returning an error would just
// push a must() to every call site).
func New(cfg Config) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Model{cfg: cfg, topicDir: make(map[uint64][]float32)}
	m.sharp = make([]float64, cfg.Layers*cfg.QHeads)
	for l := 0; l < cfg.Layers; l++ {
		for h := 0; h < cfg.QHeads; h++ {
			m.sharp[l*cfg.QHeads+h] = assignSharpness(cfg.Seed, l, h, cfg.Layers)
		}
	}
	return m
}

// assignSharpness gives each head a temperament. Layer 0 is always diffuse
// (the paper observes the first layer needs very many tokens; the optimizer
// special-cases it). Later layers are a deterministic mixture of sharp
// retrieval heads, medium heads and diffuse heads; head 0 of every layer
// past the first is pinned sharp so retrieval heads reliably exist even in
// tiny test configurations (retrieval heads are a minority but universal in
// trained long-context models).
func assignSharpness(seed uint64, layer, head, layers int) float64 {
	if layer == 0 {
		r := newPRNG(seed, 0xface, uint64(layer), uint64(head))
		return 0.02 + 0.05*r.float64()
	}
	r := newPRNG(seed, 0xbeef, uint64(layer), uint64(head))
	if head == 0 {
		return 0.85 + 0.15*r.float64()
	}
	// Deeper layers skew sharper, mirroring Figure 5's trend.
	depth := float64(layer) / float64(layers)
	u := r.float64()
	switch {
	case u < 0.25+0.2*depth: // sharp retrieval head
		return 0.80 + 0.20*r.float64()
	case u < 0.70: // medium
		return 0.40 + 0.30*r.float64()
	default: // diffuse
		return 0.08 + 0.20*r.float64()
	}
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// GroupSize returns the number of query heads per kv head.
func (m *Model) GroupSize() int { return m.cfg.QHeads / m.cfg.KVHeads }

// KVGroup maps a query head to its kv head (GQA grouping).
func (m *Model) KVGroup(qHead int) int { return qHead / m.GroupSize() }

// QueryHeadsOf returns the query heads that share kv head kv.
func (m *Model) QueryHeadsOf(kv int) []int {
	g := m.GroupSize()
	out := make([]int, g)
	for i := range out {
		out[i] = kv*g + i
	}
	return out
}

// Sharpness returns the temperament of a head: 1 is a maximally sharp
// retrieval head, 0 a maximally diffuse head.
func (m *Model) Sharpness(layer, qHead int) float64 {
	return m.sharp[layer*m.cfg.QHeads+qHead]
}

// RetrievalHeads returns the heads sharp enough to carry task answers
// (sharpness >= 0.7). Workloads decode answers from these heads only,
// mirroring the retrieval-head phenomenon (DuoAttention [64]).
func (m *Model) RetrievalHeads() []HeadRef {
	var out []HeadRef
	for l := 0; l < m.cfg.Layers; l++ {
		for h := 0; h < m.cfg.QHeads; h++ {
			if m.Sharpness(l, h) >= 0.7 {
				out = append(out, HeadRef{Layer: l, QHead: h})
			}
		}
	}
	return out
}

// dir returns the cached deterministic unit direction for a coordinate
// tuple. Directions are shared across documents (they play the role of
// trained weights).
func (m *Model) dir(kind, a, b, c uint64) []float32 {
	key := mix(m.cfg.Seed, kind, a, b, c)
	m.dirMu.RLock()
	d, ok := m.topicDir[key]
	m.dirMu.RUnlock()
	if ok {
		return d
	}
	v := make([]float32, m.cfg.HeadDim)
	r := newPRNG(key)
	r.unitVec(v)
	m.dirMu.Lock()
	m.topicDir[key] = v
	m.dirMu.Unlock()
	return v
}

const (
	kindTopic   = 1
	kindSink    = 2
	kindPayload = 3
)

func (m *Model) topicDirFor(topic, layer, kvHead int) []float32 {
	return m.dir(kindTopic, uint64(topic), uint64(layer), uint64(kvHead))
}

func (m *Model) sinkDirFor(layer, kvHead int) []float32 {
	return m.dir(kindSink, uint64(layer), uint64(kvHead), 0)
}

// payloadDir is the value-space direction that encodes vocabulary entry p.
func (m *Model) payloadDir(p, layer, kvHead int) []float32 {
	return m.dir(kindPayload, uint64(p), uint64(layer), uint64(kvHead))
}

// keyNoise returns the per-position idiosyncratic unit direction baked into
// every key. It doubles as the target of the query's recency component:
// because it is independent across positions, leaning on it aligns a query
// with specific recent tokens without polluting the topic or sink subspaces.
func (m *Model) keyNoise(doc *Document, pos, layer, kvHead int) []float32 {
	r := newPRNG(doc.Seed, 0x6b65, uint64(pos), uint64(layer), uint64(kvHead))
	noise := make([]float32, m.cfg.HeadDim)
	r.unitVec(noise)
	return noise
}

// KeyVector synthesizes the key for doc position pos at (layer, kvHead).
// The caller owns the returned slice. Sink positions carry almost no
// content: like a BOS token, their key is dominated by the shared sink
// direction.
func (m *Model) KeyVector(doc *Document, pos, layer, kvHead int) []float32 {
	tok := doc.Tokens[pos]
	k := make([]float32, m.cfg.HeadDim)
	content := float32(1)
	if pos < m.cfg.SinkTokens {
		content = 0.15
	}
	vec.Axpy(content*keyTopicWeight*tok.salienceOrDefault(), m.topicDirFor(tok.Topic, layer, kvHead), k)
	vec.Axpy(content*keyNoiseWeight, m.keyNoise(doc, pos, layer, kvHead), k)
	if pos < m.cfg.SinkTokens {
		vec.Axpy(sinkKeyWeight, m.sinkDirFor(layer, kvHead), k)
	}
	return k
}

// ValueVector synthesizes the value for doc position pos at (layer, kvHead):
// the payload direction plus small idiosyncratic noise.
func (m *Model) ValueVector(doc *Document, pos, layer, kvHead int) []float32 {
	tok := doc.Tokens[pos]
	v := vec.Clone(m.payloadDir(tok.Payload, layer, kvHead))
	r := newPRNG(doc.Seed, 0x7661, uint64(pos), uint64(layer), uint64(kvHead))
	noise := make([]float32, m.cfg.HeadDim)
	r.unitVec(noise)
	vec.Axpy(valueNoise, noise, v)
	return v
}

// BuildKV generates the full KV cache for a document across all layers and
// kv heads — the substrate's equivalent of a prefill pass (without the
// O(n²) attention; see Prefill in internal/baselines for that cost model).
func (m *Model) BuildKV(doc *Document) *kvcache.Cache {
	c := kvcache.New(m.cfg.Layers, m.cfg.KVHeads, m.cfg.HeadDim)
	m.AppendKV(doc, c, 0, len(doc.Tokens))
	return c
}

// AppendKV appends positions [lo, hi) of doc to an existing cache. The
// cache's current length must equal lo for every layer.
func (m *Model) AppendKV(doc *Document, c *kvcache.Cache, lo, hi int) {
	for l := 0; l < m.cfg.Layers; l++ {
		if c.SeqLen(l) != lo {
			panic(fmt.Sprintf("model: AppendKV at %d but layer %d has %d tokens", lo, l, c.SeqLen(l)))
		}
		for pos := lo; pos < hi; pos++ {
			for h := 0; h < m.cfg.KVHeads; h++ {
				c.Append(l, h, m.KeyVector(doc, pos, l, h), m.ValueVector(doc, pos, l, h))
			}
		}
	}
}

// QuerySpec describes one decode-step query.
type QuerySpec struct {
	// FocusTopics are the topics the generation currently attends to
	// (typically the question topic planted by a workload).
	FocusTopics []int
	// Step is the decode step index; it seeds per-step query noise.
	Step int
	// ContextLen is the number of tokens currently in context; it selects
	// which keys the recency component leans on. Zero disables recency.
	ContextLen int
}

// QueryVector synthesizes the query for (layer, qHead) under spec. Sharp
// heads emphasise the focus topics; diffuse heads are dominated by noise.
// The caller owns the returned slice. It is QueryWithRecency over the
// RecencyKeys of spec.ContextLen.
func (m *Model) QueryVector(doc *Document, layer, qHead int, spec QuerySpec) []float32 {
	recent := m.RecencyKeys(doc, layer, m.KVGroup(qHead), spec.ContextLen)
	return m.QueryWithRecency(doc, layer, qHead, spec, recent)
}

// RecencyKeys is the recency pass of QueryVector: the key-noise rows a
// query at contextLen leans on, newest first — positions contextLen-1 down
// to contextLen-recencySpan, skipping any past the end of the document.
// Every query head of one KV group at one context length leans on the same
// rows, so a caller synthesizing many such queries computes them once. The
// rows are the caller's; QueryWithRecency only reads them.
func (m *Model) RecencyKeys(doc *Document, layer, kvHead, contextLen int) [][]float32 {
	var rows [][]float32
	for j := contextLen - 1; j >= 0 && j >= contextLen-recencySpan; j-- {
		if j < len(doc.Tokens) {
			rows = append(rows, m.keyNoise(doc, j, layer, kvHead))
		}
	}
	return rows
}

// QueryWithRecency is the rest of QueryVector: the query for (layer, qHead)
// under spec, leaning on recent, which must be what RecencyKeys returns for
// qHead's KV group at spec.ContextLen. spec.ContextLen itself is not read.
func (m *Model) QueryWithRecency(doc *Document, layer, qHead int, spec QuerySpec, recent [][]float32) []float32 {
	kv := m.KVGroup(qHead)
	s := m.Sharpness(layer, qHead)
	signalW := float32(1 + 8.5*s)
	noiseW := float32(2 + 10*(1-s))

	q := make([]float32, m.cfg.HeadDim)
	for _, t := range spec.FocusTopics {
		vec.Axpy(signalW, m.topicDirFor(t, layer, kv), q)
	}
	r := newPRNG(doc.Seed, 0x7172, uint64(layer), uint64(qHead), uint64(spec.Step))
	noise := make([]float32, m.cfg.HeadDim)
	r.unitVec(noise)
	vec.Axpy(noiseW, noise, q)
	vec.Axpy(sinkQueryWeight, m.sinkDirFor(layer, kv), q)

	w := float32(recencyWeight)
	for _, row := range recent {
		vec.Axpy(w, row, q)
		w *= recencyDecay
	}

	// A head's effective attention temperature: diffuse heads produce small
	// queries, flattening the softmax over the whole context — the mechanism
	// behind Figure 5's heads that need tens of thousands of tokens to reach
	// 90% recovery.
	temp := float32(0.35 + 0.75*s)
	vec.Scale(temp, q)
	return q
}

// HeadOutput is one head's attention output for a decode step.
type HeadOutput struct {
	Layer  int
	QHead  int
	Output []float32
}

// DecodeAnswer scores every vocabulary payload against the given head
// outputs and returns the argmax payload. Only outputs from retrieval-grade
// heads should be passed in; the score for payload p is the mean inner
// product between p's value-space direction and each head's output.
func (m *Model) DecodeAnswer(outputs []HeadOutput) int {
	if len(outputs) == 0 {
		return -1
	}
	scores := make([]float32, m.cfg.Vocab)
	for _, ho := range outputs {
		kv := m.KVGroup(ho.QHead)
		for p := 0; p < m.cfg.Vocab; p++ {
			scores[p] += vec.Dot(m.payloadDir(p, ho.Layer, kv), ho.Output)
		}
	}
	return vec.Argmax(scores)
}

// WeightsBytes returns the simulated parameter footprint: the size a real
// transformer of this shape would occupy in bf16. Used by devmem accounting
// (the paper's model weights occupy 15.4 GB).
func (m *Model) WeightsBytes() int64 {
	dModel := int64(m.cfg.QHeads) * int64(m.cfg.HeadDim)
	perLayer := 4*dModel*dModel + 3*dModel*(4*dModel) // attn qkvo + ffn approx
	return int64(m.cfg.Layers) * perLayer * 2
}
