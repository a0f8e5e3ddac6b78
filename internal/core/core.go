// Package core implements AlayaDB's user-facing abstractions (§5): DB, the
// long-term store of contexts (prompts, KV cache, vector indexes), and
// Session, the connection between stored contexts and a running inference
// request. Together they replace the inference engine's own KV cache and
// attention computation: Session.Update ingests newly generated K/V (the
// DynamicCache.update counterpart) and Session.Attention returns attention
// outputs directly (the flash-attention counterpart), so the engine never
// touches KV data.
package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/attention"
	"repro/internal/devmem"
	"repro/internal/index/graph"
	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/query"
	"repro/internal/vec"
)

// Config assembles a DB.
type Config struct {
	// Model is the transformer substrate whose KV the DB manages. Required.
	Model *model.Model
	// Device is the simulated accelerator used for memory accounting. If
	// nil, an unlimited device is created.
	Device *devmem.Device
	// Window is the sink+recent token window kept on device (§7.1).
	// Defaults to 32+32.
	Window attention.Window
	// Beta is the default DIPR range parameter. Defaults to Beta(0.5, d).
	Beta float32
	// LongThreshold forwards to the optimizer (0 = default 4096).
	LongThreshold int
	// Graph configures fine-index construction. Every context holds one
	// graph per (layer, kv head), shared by that kv head's query heads and
	// trained on all of their sampled queries (§7.2 index sharing).
	Graph graph.Config
	// Pool schedules the DB's fan-out work: one decode task per (layer,
	// head or KV group), each computing its prefix and tail partials in
	// turn, and per-layer prefill/decode ingestion. Defaults to the
	// process-wide pool.Default(), shared across DBs so total parallelism
	// stays bounded by one GOMAXPROCS-sized budget.
	Pool *pool.Pool
	// ContextBudget bounds the total bytes (KV + indexes) of stored
	// contexts; the least-recently-used context is evicted from the reuse
	// store when an import exceeds it. 0 = unlimited.
	ContextBudget int64
	// SpillDir enables the disk tier: evicted contexts are persisted there
	// (one subdirectory per context) instead of dropped, and sessions whose
	// prefix matches a spilled context transparently reload it. Empty
	// disables spilling — eviction destroys the context, as before.
	SpillDir string
	// SpillBudget bounds the disk tier's total bytes; the least-recently-
	// used spilled context is deleted when a spill exceeds it. 0 =
	// unlimited.
	SpillBudget int64
	// QuantKeys puts stored contexts' key rows on the SQ8 grid: each fp32
	// key row is snapped to the dequantized values of its int8 codes
	// (per-row scales), and spill files store the packed codes, so spilled
	// key files shrink to a quarter of their fp32 size and reload to the
	// identical rows. Every resident read — flat band, DIPRS traversal,
	// host attention partial — scores the fp32 rows, exactly as without
	// QuantKeys. Values are never quantized. A spill directory written
	// with one setting cannot be adopted under the other.
	QuantKeys bool
}

// querySampleRate is the fraction of positions whose synthetic queries
// train the bipartite graph build (§7.2 uses 40%).
const querySampleRate = 0.4

func (c *Config) defaults() error {
	if c.Model == nil {
		return fmt.Errorf("core: Config.Model is required")
	}
	if c.Device == nil {
		c.Device = devmem.New(0)
	}
	if c.Window == (attention.Window{}) {
		c.Window = attention.Window{Sinks: 32, Recent: 32}
	}
	if math.IsNaN(float64(c.Beta)) || c.Beta < 0 {
		return fmt.Errorf("core: Config.Beta must be a non-negative number, got %v", c.Beta)
	}
	if c.Beta == 0 {
		c.Beta = query.Beta(0.5, c.Model.Config().HeadDim)
	}
	if c.Pool == nil {
		c.Pool = pool.Default()
	}
	return nil
}

// DB manages stored contexts. Safe for concurrent use.
type DB struct {
	cfg       Config
	mu        sync.RWMutex
	contexts  []*Context
	byHash    map[uint64]*Context // resident contexts by document hash
	weightsH  int                 // devmem handle for model weights
	clock     int64               // logical clock for context recency
	evictions int64
	tier      *tierState // disk spill tier; nil when Config.SpillDir is empty
	share     metrics.ShareCounters
	ctxpar    metrics.CtxParCounters
}

// Context is a stored, reusable long context: its prompts (token sequence),
// KV cache, and per-(layer, group) vector indexes. A context produced by a
// copy-on-write Store additionally points at the immutable base it was
// derived from: its own cache then holds only the rows past baseLen — the
// divergent tail — while the shared prefix (KV rows and graph indexes)
// stays in the base, counted and spilled exactly once.
type Context struct {
	doc      *model.Document
	cache    *kvcache.Cache // full KV, or rows [baseLen, Len()) when base != nil
	graphs   []*graph.Graph // layer*groups + group; nil until built
	groups   int            // index groups per layer: one per kv head
	lastUsed int64          // recency under the DB's logical clock
	hash     uint64         // DocHash(doc), fixed at construction

	base    *Context // shared immutable prefix chain; nil for a root context
	baseLen int      // logical rows served by the base chain
	// refs counts pins — active sessions attached to this context (or an
	// ancestor chain passing through it) plus resident derived contexts —
	// and is guarded by the DB's mu. Eviction refuses to drop a pinned
	// context: a shared prefix is never pulled out from under a session or
	// a resident descendant.
	refs int32
	// resident marks membership in db.contexts; guarded by db.mu.
	resident bool
}

// Doc returns the stored token sequence.
func (c *Context) Doc() *model.Document { return c.doc }

// Cache returns the context's owned KV cache (read-only). For a
// copy-on-write context this is only the divergent tail — rows
// [BaseLen(), Len()) — the shared prefix rows live in Base()'s cache.
func (c *Context) Cache() *kvcache.Cache { return c.cache }

// Len returns the stored context length in tokens.
func (c *Context) Len() int { return c.doc.Len() }

// Base returns the shared prefix context this one was derived from by a
// copy-on-write Store, or nil for a root context that owns all its rows.
func (c *Context) Base() *Context { return c.base }

// BaseLen returns how many leading rows the base chain serves (0 for a
// root context).
func (c *Context) BaseLen() int { return c.baseLen }

// root returns the chain's root context (itself when it has no base).
func (c *Context) root() *Context {
	for c.base != nil {
		c = c.base
	}
	return c
}

// New creates a DB. The model's weights are registered against the device,
// mirroring the resident-weights footprint of a real deployment.
func New(cfg Config) (*DB, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	db := &DB{
		cfg:    cfg,
		byHash: make(map[uint64]*Context),
	}
	h, err := cfg.Device.Alloc(cfg.Model.WeightsBytes(), devmem.Weights)
	if err != nil {
		return nil, fmt.Errorf("core: registering model weights: %w", err)
	}
	db.weightsH = h
	if cfg.SpillDir != "" {
		if err := db.initTier(); err != nil {
			cfg.Device.Free(h)
			return nil, err
		}
	}
	return db, nil
}

// Model returns the substrate the DB serves.
func (db *DB) Model() *model.Model { return db.cfg.Model }

// QuantEnabled reports whether the DB keeps key rows on the SQ8 grid.
func (db *DB) QuantEnabled() bool { return db.cfg.QuantKeys }

// CtxParStats returns a snapshot of the index-build counters.
func (db *DB) CtxParStats() metrics.CtxParSnapshot { return db.ctxpar.Snapshot() }

// Device returns the DB's device accountant.
func (db *DB) Device() *devmem.Device { return db.cfg.Device }

// Pool returns the worker pool the DB fans compute across.
func (db *DB) Pool() *pool.Pool { return db.cfg.Pool }

// Window returns the configured device window.
func (db *DB) Window() attention.Window { return db.cfg.Window }

// NumContexts returns the number of stored contexts.
func (db *DB) NumContexts() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.contexts)
}

// Import stores a precomputed context (prompts + KV cache) for future
// reuse, building its vector indexes eagerly — the DB.import API of
// Table 2. The cache must match doc's length. Under Config.QuantKeys the
// indexes are built over the raw fp32 keys first and the rows are snapped
// afterwards: graph construction sees exactly the vectors an fp32
// configuration would, so the adjacency is identical across the two
// configurations and only the snapped key values differ.
func (db *DB) Import(doc *model.Document, cache *kvcache.Cache) (*Context, error) {
	if cache.SeqLen(0) != doc.Len() {
		return nil, fmt.Errorf("core: cache holds %d tokens, document has %d", cache.SeqLen(0), doc.Len())
	}
	ctx := &Context{doc: doc, cache: cache}
	db.BuildIndexes(ctx)
	if db.cfg.QuantKeys {
		cache.EnableQuantKeys() // snaps key rows in place; adjacency is already fixed
	}
	if err := db.registerContext(ctx); err != nil {
		return nil, err
	}
	return ctx, nil
}

// registerContext adds ctx to the resident store, marks it most recently
// used, and enforces the context budget. Evicted contexts are spilled to
// the disk tier (when configured) after the store lock is released:
// SaveContext is file I/O and the victims are already out of the resident
// store, so nothing can race the writes.
func (db *DB) registerContext(ctx *Context) error {
	db.mu.Lock()
	db.registerLocked(ctx)
	victims, err := db.enforceBudgetLocked(ctx)
	db.mu.Unlock()
	db.spillAll(victims)
	return err
}

// registerLocked inserts ctx into the resident store, where
// CreateSession's prefix scan finds it. A context with a base first
// (re-)registers its ancestors — the chain's bytes are alive as long as
// the derived context is, so the budget accounting must see them — and
// pins the chain, so eviction can never drop a shared prefix out from
// under a resident descendant.
// Re-registering an already-resident context only refreshes its recency.
// Caller holds db.mu for writing.
func (db *DB) registerLocked(ctx *Context) {
	if ctx.resident {
		db.touchLocked(ctx)
		return
	}
	if ctx.base != nil {
		db.registerLocked(ctx.base)
		db.pinChainLocked(ctx.base)
	}
	if ctx.hash == 0 {
		ctx.hash = DocHash(ctx.doc)
	}
	ctx.resident = true
	db.contexts = append(db.contexts, ctx)
	db.byHash[ctx.hash] = ctx
	db.touchLocked(ctx)
}

// ImportDoc generates the KV cache for doc through the model substrate and
// imports it (convenience for examples and tests).
func (db *DB) ImportDoc(doc *model.Document) (*Context, error) {
	return db.Import(doc, db.cfg.Model.BuildKV(doc))
}

// indexGroups returns how many indexes each layer carries: one per kv head,
// shared by its query heads (§7.2).
func (db *DB) indexGroups() int {
	return db.cfg.Model.Config().KVHeads
}

// BuildIndexes constructs the fine (graph) indexes for every layer and kv
// head of ctx. The training queries for a kv head merge samples from all of
// its query heads, so one graph captures every head's distribution (§7.2).
// Query sampling, then the graph builds, fan across the pool one (layer,
// kv head) per job. They stay two fan-outs: fusing them into one
// sample-then-build job made concurrent imports about 13 % slower on a
// 2-vCPU Xeon.
func (db *DB) BuildIndexes(ctx *Context) {
	start := time.Now()
	mc := db.cfg.Model.Config()
	groups := db.indexGroups()
	ctx.groups = groups
	ctx.graphs = make([]*graph.Graph, mc.Layers*groups)
	queries := make([]*vec.Matrix, len(ctx.graphs))
	db.cfg.Pool.ForEach(len(queries), func(i int) {
		queries[i] = db.sampleQueries(ctx.doc, i/groups, i%groups)
	})
	db.cfg.Pool.ForEach(len(ctx.graphs), func(i int) {
		layer, kv := i/groups, i%groups
		gcfg := db.cfg.Graph
		gcfg.Workers = 1 // parallelism is across (layer, group) jobs here
		ctx.graphs[i] = graph.Build(ctx.cache.Keys(layer, kv), queries[i], gcfg)
	})
	db.ctxpar.RecordBuild(time.Since(start).Nanoseconds())
}

// sampleQueries synthesizes the historical-query training set for a graph:
// queries from every query head of the kv head, at sampled positions and
// topics drawn from the document itself.
func (db *DB) sampleQueries(doc *model.Document, layer, kv int) *vec.Matrix {
	m := db.cfg.Model
	return TrainingQueries(m, doc, layer, m.QueryHeadsOf(kv), querySampleRate)
}

// TrainingQueries synthesizes the historical-query set used to train a
// bipartite (RoarGraph) index for one layer: sampled positional queries
// plus one query per distinct document topic. During a real prefill each
// position issues a query attending to its own content, so even a topic
// mentioned once is represented in the query history the index trains on
// (§7.2 samples 40% of prefill queries per head). Exported for the figure
// runners and the benchmark's probes, which build indexes outside a DB.
func TrainingQueries(m *model.Model, doc *model.Document, layer int, heads []int, rate float64) *vec.Matrix {
	n := doc.Len()
	if n == 0 || len(heads) == 0 {
		return nil
	}
	if rate <= 0 || rate > 1 {
		rate = 0.4
	}
	perHead := int(float64(n) * rate / float64(len(heads)))
	if perHead < 8 {
		perHead = 8
	}
	const topicCap = 2048
	topicSet := make(map[int]bool)
	var topics []int
	for _, tok := range doc.Tokens {
		if !topicSet[tok.Topic] {
			topicSet[tok.Topic] = true
			topics = append(topics, tok.Topic)
			if len(topics) >= topicCap {
				break
			}
		}
	}

	// Every query sits at ContextLen n, so the query heads of one KV group
	// lean on the same recency rows: compute them once per group.
	recent := make(map[int][][]float32)
	qm := vec.NewMatrix(0, m.Config().HeadDim)
	for _, h := range heads {
		kv := m.KVGroup(h)
		rows, ok := recent[kv]
		if !ok {
			rows = m.RecencyKeys(doc, layer, kv, n)
			recent[kv] = rows
		}
		for s := 0; s < perHead; s++ {
			// Positional samples cycle through the document at a stride,
			// covering the bulk topic mix.
			pos := (s * 7919) % n
			spec := model.QuerySpec{
				FocusTopics: []int{doc.Tokens[pos].Topic},
				Step:        s,
				ContextLen:  n,
			}
			qm.Append(m.QueryWithRecency(doc, layer, h, spec, rows))
		}
		for i, topic := range topics {
			spec := model.QuerySpec{
				FocusTopics: []int{topic},
				Step:        perHead + i,
				ContextLen:  n,
			}
			qm.Append(m.QueryWithRecency(doc, layer, h, spec, rows))
		}
	}
	return qm
}

// Graph returns the fine index for (layer, qHead) of a stored context, or
// nil if not built.
func (ctx *Context) Graph(db *DB, layer, qHead int) *graph.Graph {
	if ctx.graphs == nil {
		return nil
	}
	return ctx.graphs[layer*ctx.groups+db.cfg.Model.KVGroup(qHead)]
}

// IndexBytes returns the total adjacency footprint of the context's graphs.
func (ctx *Context) IndexBytes() int64 {
	var n int64
	for _, g := range ctx.graphs {
		if g != nil {
			n += g.Bytes()
		}
	}
	return n
}

// CreateSession opens a session for doc, reusing the longest common prefix
// with any stored context (DB.create_session in Table 2). It returns the
// session and the number of tokens reused: the caller only needs to feed
// tokens from that position on through Session.Update.
//
// The prefix search scans the resident documents with commonPrefix under
// the registry's read lock, and then the spill catalog the same way: a
// spilled context with a longer matching prefix than any resident one is
// transparently reloaded and reused, so the returned reuse count can come
// from a context that was not resident when the call began
// (Session.BaseFromSpill reports this). An evicted context whose spill is
// still being written is in neither set; it is registered back from
// memory first (reclaimDraining). The reused context may itself be a
// copy-on-write chain; the session attaches at the shallowest link that
// serves the whole reused prefix and pins the chain, so eviction cannot
// drop any of it while the session lives.
//
// A scan, not an index: at the tens of contexts a DB holds, comparing
// tokens up to the first mismatch costs less than hashing the query into
// an index would. README's "Longest-prefix lookup is a scan" gives the
// measured costs and the store size where an index would win.
func (db *DB) CreateSession(doc *model.Document) (*Session, int) {
	var best *Context
	bestLen := 0
	db.mu.RLock()
	for _, ctx := range db.contexts {
		if n := commonPrefix(ctx.doc, doc); n > bestLen {
			best, bestLen = ctx, n
		}
	}
	db.mu.RUnlock()
	if ctx, n := db.reclaimDraining(doc, bestLen); ctx != nil {
		best, bestLen = ctx, n
	}
	reloaded := false
	if ctx, n := db.reloadForPrefix(doc, bestLen); ctx != nil {
		best, bestLen, reloaded = ctx, n, true
		db.share.RecordSpillHit()
	}
	db.share.RecordLookup(bestLen > 0)
	db.mu.Lock()
	for best != nil && best.base != nil && bestLen <= best.baseLen {
		best = best.base // the whole reused prefix lives in an ancestor
	}
	if best != nil {
		db.touchLocked(best)
		db.pinChainLocked(best)
	}
	db.mu.Unlock()
	s := newSession(db, best, bestLen, doc)
	s.baseReloaded = reloaded
	s.basePinned = best != nil
	return s, bestLen
}

// CreateSpanSession opens a range-shard session over rows [lo, hi) of doc —
// one shard of a context a cluster router has split across nodes. The
// session carries the full document (KV generation is absolute-position
// dependent) but ingests and attends only its span: lo plays the reuseLen
// role with no backing context, so the span rows live in the session tail
// and are attended exactly — the shard's attention output is a precise
// log-sum-exp Partial of the whole context's softmax, ready for the
// router's second-level merge. hi == 0 makes the shard open-ended: it owns
// [lo, ∞), ingests generated tokens, and is the one shard whose ContextLen
// tracks the full context. Span sessions skip prefix reuse and cannot
// be stored.
func (db *DB) CreateSpanSession(doc *model.Document, lo, hi int) (*Session, error) {
	if lo < 0 || lo > doc.Len() {
		return nil, fmt.Errorf("core: span lo %d out of range [0, %d]", lo, doc.Len())
	}
	if hi != 0 && (hi <= lo || hi > doc.Len()) {
		return nil, fmt.Errorf("core: span [%d, %d) invalid for a %d-token document", lo, hi, doc.Len())
	}
	s := newSession(db, nil, lo, doc)
	s.span = true
	s.spanHi = hi
	return s, nil
}

// Store persists a session's state as a new reusable context (DB.store in
// Table 2). A session that reuses a stored prefix produces a
// copy-on-write context: the new context shares the base's KV rows and
// graph indexes by reference — pinning the base against eviction
// — and owns only its divergent tail, cloned from the session so the
// session can keep decoding afterwards. No prefix rows are copied and no
// indexes are rebuilt; sessions created over the stored context reproduce
// the storing session's computation exactly (retrieval through the chain
// root's indexes, tail rows attended exactly), bitwise-identical to the
// storing session continuing in place. A cold session (no reused prefix)
// takes the original late-materialization path (§7.2): its tail becomes a
// fresh root context whose indexes are built now, not during decoding.
func (db *DB) Store(s *Session) (*Context, error) {
	if s.span {
		// A shard session's tail starts at an arbitrary offset with no
		// backing context below it; materializing it would persist a
		// hole-filled cache. Store belongs to the session that owns the
		// whole context (on a router: nowhere — sharded contexts live
		// distributed or not at all).
		return nil, fmt.Errorf("core: a range-shard span session cannot be stored")
	}
	if s.base == nil {
		doc, cache, err := s.materialize()
		if err != nil {
			return nil, err
		}
		return db.Import(doc, cache)
	}
	mc := db.cfg.Model.Config()
	for l := 0; l < mc.Layers; l++ {
		if got := s.ContextLen(l); got != s.doc.Len() {
			return nil, fmt.Errorf("core: layer %d holds %d of %d tokens; prefill before storing", l, got, s.doc.Len())
		}
	}
	if s.reuseLen == s.doc.Len() && s.base.Len() == s.doc.Len() {
		// The session diverged nowhere: its base already is this context.
		db.mu.Lock()
		db.touchLocked(s.base)
		db.mu.Unlock()
		return s.base, nil
	}
	doc := &model.Document{Seed: s.doc.Seed, Tokens: append([]model.Token(nil), s.doc.Tokens...)}
	ctx := &Context{
		doc:     doc,
		cache:   s.tail.Clone(),
		groups:  db.indexGroups(),
		base:    s.base,
		baseLen: s.reuseLen,
	}
	db.share.RecordCoWStore()
	if err := db.registerContext(ctx); err != nil {
		return nil, err
	}
	return ctx, nil
}

// Close releases the DB's device registrations.
func (db *DB) Close() error {
	return db.cfg.Device.Free(db.weightsH)
}

// commonPrefix returns the number of leading tokens shared by two
// documents. Documents from different sources (seeds) share nothing: their
// KV caches would differ even for equal token sequences.
func commonPrefix(a, b *model.Document) int {
	if a.Seed != b.Seed {
		return 0
	}
	n := a.Len()
	if b.Len() < n {
		n = b.Len()
	}
	for i := 0; i < n; i++ {
		if a.Tokens[i] != b.Tokens[i] {
			return i
		}
	}
	return n
}
