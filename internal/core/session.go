package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/attention"
	"repro/internal/devmem"
	"repro/internal/index"
	"repro/internal/index/flat"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/query"
)

// decodeState bundles every reusable buffer one attention computation
// needs: the partial-attention scratch arenas (prefix and tail), the DIPRS
// search state, the flat-scan scratch, the dedup bitset, the index
// buffers the plan executor fills, and a group task's per-head score rows.
// States are drawn from a sync.Pool, so a steady-state decode loop —
// serial or fanned across the worker pool — reuses the same handful of
// states token after token and allocates nothing. A state serves one
// attention call (or one group task) at a time.
type decodeState struct {
	scPrefix  attention.Scratch
	scTail    attention.Scratch
	parts     [2]attention.Partial // prefix, tail
	search    query.SearchState
	flat      flat.Scratch
	seen      index.VisitSet
	winPrefix []int
	prefixIdx []int
	ids       []int
	segs      []attention.KVSpan
	// groupScores holds one score row per query head of a group task:
	// the multi-query pass's dots over the indexed prefix.
	groupScores [][]float32
}

// scoreRows returns g score rows of n entries from ds, growing them only
// when a larger group or prefix arrives. Contents are unspecified.
func (ds *decodeState) scoreRows(g, n int) [][]float32 {
	for len(ds.groupScores) < g {
		ds.groupScores = append(ds.groupScores, nil)
	}
	rows := ds.groupScores[:g]
	for k := range rows {
		if cap(rows[k]) < n {
			rows[k] = make([]float32, n)
		}
		rows[k] = rows[k][:n]
	}
	return rows
}

var decodeStatePool = sync.Pool{New: func() interface{} { return new(decodeState) }}

func getDecodeState() *decodeState   { return decodeStatePool.Get().(*decodeState) }
func putDecodeState(ds *decodeState) { decodeStatePool.Put(ds) }

// Untyped forms passed to pool.ForEachScratch; package-level function
// values, so handing them over allocates nothing.
func getDecodeStateAny() interface{}  { return decodeStatePool.Get() }
func putDecodeStateAny(v interface{}) { decodeStatePool.Put(v) }

// Session connects a (possibly reused) stored context with a running
// inference request (§5). A session's context is split at reuseLen: tokens
// below it live in the reused stored context (searchable through its
// indexes), tokens at or above it live in the session-local tail cache —
// the late-materialization zone (§7.2): they are attended through the
// window, not indexed, until DB.Store materializes them.
//
// When the reused context is a copy-on-write chain, the split refines
// further: rows [0, indexedLen) live in the chain's root and are
// searchable through its indexes; rows [indexedLen, reuseLen) are the
// chain links' divergent tails (mids), attended exactly — they were the
// storing sessions' own tails, and they stay in that role here; rows from
// reuseLen on are this session's tail. The mids and the tail score as one
// chained partial that is bitwise-identical to a single contiguous tail
// cache (attention.OverSegmentsScratch), which is what makes a session
// over a stored copy-on-write context reproduce the storing session's
// continuation exactly.
type Session struct {
	db           *DB
	base         *Context // reused stored context (attach point); nil when cold
	root         *Context // base's chain root; == base without copy-on-write
	baseReloaded bool     // base was reloaded from the spill tier
	basePinned   bool     // base chain holds this session's eviction pin
	reuseLen     int      // tokens reused from base
	indexedLen   int      // leading tokens searchable through root's indexes
	mids         []kvSeg  // chain rows [indexedLen, reuseLen), root-first
	span         bool     // range-shard session: attends only [reuseLen, spanHi)
	spanHi       int      // exclusive span end; 0 = open (the tail-owner shard)
	doc          *model.Document
	tail         *kvcache.Cache

	mu      sync.Mutex
	windowH int // devmem handle for the device window
	closed  bool
	// tasks is the decode fan-out's task list, kept across steps so a warm
	// step allocates none. A fan-out takes it (takeTasks) and hands it
	// back; a concurrent caller that finds it taken builds its own.
	tasks []decodeTask

	stats Stats
}

// kvSeg is one chain link's contribution to a session's attended rows:
// local rows [lo, hi) of cache.
type kvSeg struct {
	cache  *kvcache.Cache
	lo, hi int
}

// Stats counts a session's query processing activity.
type Stats struct {
	// Plans counts executed plans by their String() form.
	Plans map[string]int
	// Retrieved is the total number of critical tokens retrieved.
	Retrieved int64
	// Explored is the total number of index nodes scored.
	Explored int64
	// Queries is the number of Attention calls served.
	Queries int64
	// FlatFallbacks counts fine-plan queries served by a flat scan because
	// no graph index covered the data.
	FlatFallbacks int64
	// Reranked is always zero: no decode path reranks. The field stays only
	// while benchmark/probes.go reads it (core.reranked_per_query).
	Reranked int64
}

func newSession(db *DB, base *Context, reuseLen int, doc *model.Document) *Session {
	// The session owns its document: generation appends tokens to it, and
	// mutating the caller's prompt (or a stored context's document) through
	// the session would corrupt prefix matching for later sessions.
	owned := &model.Document{Seed: doc.Seed, Tokens: append([]model.Token(nil), doc.Tokens...)}
	s := &Session{
		db:       db,
		base:     base,
		reuseLen: reuseLen,
		doc:      owned,
		tail:     kvcache.New(db.cfg.Model.Config().Layers, db.cfg.Model.Config().KVHeads, db.cfg.Model.Config().HeadDim),
		windowH:  -1,
		stats:    Stats{Plans: make(map[string]int)},
	}
	s.resolveChain()
	mc := db.cfg.Model.Config()
	winBytes := int64(db.cfg.Window.Sinks+db.cfg.Window.Recent) * int64(mc.Layers) * int64(mc.KVHeads) * int64(mc.HeadDim) * 4 * 2
	if h, err := db.cfg.Device.Alloc(winBytes, devmem.Window); err == nil {
		s.windowH = h
	}
	return s
}

// resolveChain precomputes the session's view of its base chain: the
// root context (whose indexes serve retrieval), how many leading tokens
// those indexes cover, and the middle segments — each chain link's owned
// rows that fall inside the reused prefix, ordered root-first so the
// chained tail partial visits rows in logical order. Contexts are
// immutable, so this is fixed for the session's lifetime.
func (s *Session) resolveChain() {
	if s.base == nil {
		s.indexedLen = 0
		return
	}
	var chain []*Context // attach point first, root last
	for c := s.base; c != nil; c = c.base {
		chain = append(chain, c)
	}
	s.root = chain[len(chain)-1]
	rootCover := s.root.Len()
	if len(chain) > 1 {
		rootCover = chain[len(chain)-2].baseLen
	}
	s.indexedLen = s.reuseLen
	if s.indexedLen > rootCover {
		s.indexedLen = rootCover
	}
	for i := len(chain) - 2; i >= 0; i-- {
		c := chain[i]
		upper := s.reuseLen
		if i > 0 {
			upper = chain[i-1].baseLen
		}
		if upper > c.Len() {
			upper = c.Len()
		}
		if upper > c.baseLen {
			s.mids = append(s.mids, kvSeg{cache: c.cache, lo: 0, hi: upper - c.baseLen})
		}
	}
}

// Doc returns the session's document (reused prefix plus appended tokens).
func (s *Session) Doc() *model.Document { return s.doc }

// BaseFromSpill reports whether the session's reused context was reloaded
// from the disk spill tier rather than found resident in memory.
func (s *Session) BaseFromSpill() bool { return s.baseReloaded }

// PartialReuse reports whether the session's indexed prefix is a strict
// prefix of the chain root's indexed rows, which forces attribute
// filtering during retrieval (§7.1). Chain mids are attended exactly, so
// only the root boundary matters here.
func (s *Session) PartialReuse() bool {
	return s.root != nil && s.indexedLen < s.root.Len()
}

// ContextLen returns the session's current context length for a layer:
// reused prefix plus ingested tail tokens.
func (s *Session) ContextLen(layer int) int {
	return s.reuseLen + s.tail.SeqLen(layer)
}

// Stats returns a copy of the session's counters.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := s.stats
	cp.Plans = make(map[string]int, len(s.stats.Plans))
	for k, v := range s.stats.Plans {
		cp.Plans[k] = v
	}
	return cp
}

// Update ingests one token's key and value vectors for one layer across all
// kv heads — the Session.update API of Table 2, the counterpart of
// HuggingFace's DynamicCache.update. ks and vs are indexed by kv head.
func (s *Session) Update(layer int, ks, vs [][]float32) {
	s.tail.AppendAll(layer, ks, vs)
}

// PrefillRemaining generates and ingests KV for every document token not
// covered by the reused prefix, through the model substrate. Layers are
// filled in parallel through the DB's pool — each layer appends to its own
// cache matrices, so the sweep is a pure fan-out. It returns the number of
// tokens ingested per layer.
func (s *Session) PrefillRemaining() int {
	mc := s.db.cfg.Model.Config()
	end := s.spanEnd()
	fed := end - s.reuseLen - s.tail.SeqLen(0)
	if fed < 0 {
		fed = 0
	}
	s.db.cfg.Pool.ForEach(mc.Layers, func(l int) {
		start := s.reuseLen + s.tail.SeqLen(l)
		for pos := start; pos < end; pos++ {
			s.ingest(l, pos)
		}
	})
	return fed
}

// spanEnd returns the exclusive end of the rows this session ingests: the
// whole document, capped at spanHi for a fixed range-shard session.
func (s *Session) spanEnd() int {
	if s.span && s.spanHi > 0 && s.spanHi < s.doc.Len() {
		return s.spanHi
	}
	return s.doc.Len()
}

// Span reports whether this is a range-shard session (created by
// CreateSpanSession); FixedSpan additionally reports a bounded shard —
// one that must never ingest generated tokens (the open tail-owner shard
// does; it is the only shard a routed AppendToken lands on).
func (s *Session) Span() bool      { return s.span }
func (s *Session) FixedSpan() bool { return s.span && s.spanHi > 0 }

// AppendToken extends the session document with a newly generated token and
// ingests its KV across all layers, fanned out layer-per-task. Fixed-span
// shard sessions never ingest generated tokens (the serving layer routes
// them attend-only); feeding one is a caller bug, not a recoverable state.
func (s *Session) AppendToken(t model.Token) {
	if s.FixedSpan() {
		panic("core: AppendToken on a fixed-span shard session")
	}
	pos := s.doc.Append(t)
	mc := s.db.cfg.Model.Config()
	s.db.cfg.Pool.ForEach(mc.Layers, func(l int) {
		s.ingest(l, pos)
	})
}

// ingest generates and appends one token's KV for one layer.
func (s *Session) ingest(layer, pos int) {
	m := s.db.cfg.Model
	mc := m.Config()
	ks := make([][]float32, mc.KVHeads)
	vs := make([][]float32, mc.KVHeads)
	for h := 0; h < mc.KVHeads; h++ {
		ks[h] = m.KeyVector(s.doc, pos, layer, h)
		vs[h] = m.ValueVector(s.doc, pos, layer, h)
	}
	s.Update(layer, ks, vs)
}

// AttentionResult carries one head's attention output plus the execution
// facts experiments record.
type AttentionResult struct {
	Output       []float32
	Plan         query.Plan
	Retrieved    int   // critical tokens retrieved (excluding window/tail)
	RetrievedIDs []int // the retrieved positions themselves
	Explored     int   // index nodes scored
	Attended     int   // total tokens that participated in the output
	// LSE is the combined log-sum-exp over every merged partial — the
	// weight a second-level merge (a cluster router folding per-node
	// partials) needs to treat this whole result as one Partial. −Inf
	// when nothing attended.
	LSE float64
}

// Attention computes the attention output of q for (layer, qHead) over the
// session's whole context — the Session.attention API of Table 2. The
// execution plan is chosen by the rule-based optimizer (Figure 8). The
// result's slices are freshly allocated and safe to retain; decode loops
// that want the allocation-free path use AttentionAllInto.
func (s *Session) Attention(layer, qHead int, q []float32) AttentionResult {
	var res AttentionResult
	ds := getDecodeState()
	s.attentionInto(ds, layer, qHead, q, &res)
	putDecodeState(ds)
	return res
}

// AttentionAll computes attention for every query head of a layer, fanning
// the heads across the DB's worker pool as independent decode tasks, each
// computing its prefix and tail partials in turn. qs is indexed by query
// head. The result is bitwise-identical to calling Attention per head
// serially, on any pool and any device: plans depend only on the session,
// and each head's computation is deterministic and shares no mutable state
// beyond counters. Result slices are freshly allocated; decode loops use
// AttentionAllInto.
func (s *Session) AttentionAll(layer int, qs [][]float32) []AttentionResult {
	out := make([]AttentionResult, len(qs))
	s.AttentionAllInto(layer, qs, out)
	return out
}

// AttentionAllInto is AttentionAll writing into out (len(out) must equal
// len(qs)), reusing each entry's Output and RetrievedIDs storage across
// calls: a decode loop that keeps one result per head sees zero
// allocations per token once buffers are warm. Previous contents of out
// are overwritten; callers that retain a result beyond the next call on
// the same out must copy it. The layer fans across the DB's worker pool
// as decode tasks (see AttentionAllLayersInto) with one pooled decode
// state per worker; on the Serial pool the whole fan-out runs inline on
// one state with no allocation at all.
func (s *Session) AttentionAllInto(layer int, qs [][]float32, out []AttentionResult) {
	if len(out) != len(qs) {
		panic(fmt.Sprintf("core: AttentionAllInto got %d result slots for %d heads", len(out), len(qs)))
	}
	tasks := s.appendLayerTasks(s.takeTasks(), layer, qs, out)
	runTasks(s.db.cfg.Pool, tasks)
	s.putTasks(tasks)
}

// plan runs the optimizer (Figure 8) for one query of layer over the
// session's current context. It reads only the session.
func (s *Session) plan(layer int) query.Plan {
	return query.Optimize(query.Request{
		ContextLen:    s.ContextLen(layer),
		LongThreshold: s.db.cfg.LongThreshold,
		PartialReuse:  s.PartialReuse(),
		Layer:         layer,
	})
}

// groupPlan plans layer once and reports whether its query heads may run
// as group tasks: a full+none or dipr+flat plan over an indexed prefix
// scores every prefix key for every head, so one multi-query pass per KV
// group serves them all. Graph plans, and sessions with no indexed prefix,
// stay per head.
func (s *Session) groupPlan(layer int) (query.Plan, bool) {
	if s.root == nil || s.indexedLen == 0 {
		return query.Plan{}, false
	}
	plan := s.plan(layer)
	flatDIPR := plan.Query == query.KindDIPR && plan.Index == query.IndexFlat
	return plan, plan.Query == query.KindFull || flatDIPR
}

// attendGroup executes a group task: the query heads qs, heads head.. of
// layer, all of one KV group, under the layer's full+none or dipr+flat
// plan (groupPlan). One multi-query pass scores the whole indexed prefix
// for every head; each head then selects its band (dipr+flat) or takes
// its scores as the prefix partial's logits (full), and finishes exactly
// as attentionInto does — so every result, and every counter, is bitwise
// the per-head path's.
func (s *Session) attendGroup(ds *decodeState, plan query.Plan, layer, head int, qs [][]float32, out []AttentionResult) {
	kv := s.db.cfg.Model.KVGroup(head)
	s.windowPrefixInto(ds, s.ContextLen(layer))
	fx := flat.Make(s.root.cache.Keys(layer, kv), 1)
	rows := ds.scoreRows(len(qs), s.indexedLen)
	n := fx.ScoreGroup(qs, s.indexedLen, rows)
	for k, q := range qs {
		if plan.Query == query.KindFull {
			s.finishHead(ds, plan, layer, kv, q, &out[k], nil, 0, rows[k][:n])
			continue
		}
		cands, _ := fx.BandScratch(&ds.flat, rows[k][:n], s.db.cfg.Beta)
		s.finishHead(ds, plan, layer, kv, q, &out[k], s.bandIDs(ds, cands), n, nil)
	}
}

// attentionInto plans and executes one head's attention through ds's
// arenas, writing the result into *res.
func (s *Session) attentionInto(ds *decodeState, layer, qHead int, q []float32, res *AttentionResult) {
	plan := s.plan(layer)
	kv := s.db.cfg.Model.KVGroup(qHead)
	s.windowPrefixInto(ds, s.ContextLen(layer))

	var retrieved []int
	explored := 0
	if plan.Query == query.KindDIPR { // full attention retrieves nothing
		retrieved, explored = s.executeDIPR(ds, plan, layer, qHead, kv, q)
	}

	s.finishHead(ds, plan, layer, kv, q, res, retrieved, explored, nil)
}

// finishHead computes one head's output from its retrieved prefix
// positions (or, for a group task's full plan, its prefix logits), fills
// *res, and records the head in the session's counters.
func (s *Session) finishHead(ds *decodeState, plan query.Plan, layer, kv int, q []float32, res *AttentionResult, retrieved []int, explored int, logits []float32) {
	attended := s.sparseOutputInto(ds, plan, layer, kv, q, res, retrieved, logits)
	res.Plan = plan
	res.Retrieved = len(retrieved)
	res.RetrievedIDs = append(res.RetrievedIDs[:0], retrieved...)
	res.Explored = explored
	res.Attended = attended

	s.mu.Lock()
	s.stats.Plans[plan.String()]++
	s.stats.Retrieved += int64(res.Retrieved)
	s.stats.Explored += int64(res.Explored)
	s.stats.Queries++
	s.mu.Unlock()
}

// executeDIPR retrieves the β-critical set from the indexed prefix — the
// chain root's rows below indexedLen — via the planned index, through ds's
// search arenas. The attended set is bounded to an eighth of the indexed
// prefix (min 64): diffuse heads' β-bands can span much of the context,
// and like InfLLM's block budget, production retrieval is bounded. The
// returned ids alias ds; the second result is the explored node count.
func (s *Session) executeDIPR(ds *decodeState, plan query.Plan, layer, qHead, kv int, q []float32) ([]int, int) {
	if s.root == nil || s.indexedLen == 0 {
		return nil, 0
	}
	beta := s.db.cfg.Beta
	limit := s.indexedLen
	resultCap := s.resultCap()

	if plan.Index == query.IndexFlat {
		return s.flatDIPR(ds, layer, kv, q, beta, limit), limit
	}

	g := s.root.Graph(s.db, layer, qHead)
	if g == nil {
		s.mu.Lock()
		s.stats.FlatFallbacks++
		s.mu.Unlock()
		return s.flatDIPR(ds, layer, kv, q, beta, limit), limit
	}

	cfg := query.DIPRSConfig{Beta: beta, MaxResults: resultCap, MaxExplore: 4 * resultCap}
	// Window-cache enhancement (§7.1): seed the running maximum with the
	// best inner product inside the device window's prefix part.
	if max, ok := query.WindowMax(q, s.root.cache.Keys(layer, kv), ds.winPrefix); ok {
		cfg.InitialMax = max
		cfg.HasInitialMax = true
	}
	if plan.Filtered {
		// The predicate closure is the one allocation left on the
		// partial-reuse path; full-reuse decode stays allocation-free.
		lim := int32(limit)
		cfg.Filter = func(id int32) bool { return id < lim }
	}
	r := query.DIPRSWith(&ds.search, g, q, cfg)
	ids := ds.ids[:0]
	for _, c := range r.Critical {
		if int(c.ID) < limit { // unfiltered plans may index beyond the prefix
			ids = append(ids, int(c.ID))
		}
	}
	ds.ids = ids
	return ids, r.Explored
}

// resultCap is the bound on a DIPR retrieval's attended set: an eighth of
// the indexed prefix, min 64.
func (s *Session) resultCap() int {
	return max(s.indexedLen/8, 64)
}

// flatDIPR runs the exact band scan over the reused prefix through ds's
// flat scratch. The scan runs on the calling task, as every other decode
// scan does. The returned ids alias ds.
func (s *Session) flatDIPR(ds *decodeState, layer, kv int, q []float32, beta float32, limit int) []int {
	fx := flat.Make(s.root.cache.Keys(layer, kv), 1)
	cands, _ := fx.DIPRFilteredScratch(&ds.flat, q, beta, limit)
	return s.bandIDs(ds, cands)
}

// bandIDs keeps the top resultCap of a best-first flat band as positions
// in ds.ids, which the returned slice aliases.
func (s *Session) bandIDs(ds *decodeState, cands []index.Candidate) []int {
	if rc := s.resultCap(); len(cands) > rc {
		cands = cands[:rc] // best-first: keep the top of the band
	}
	ids := ds.ids[:0]
	for _, c := range cands {
		ids = append(ids, int(c.ID))
	}
	ds.ids = ids
	return ids
}

// windowPrefixInto collects into ds.winPrefix the device-window positions
// that fall inside the indexed prefix for a context of n tokens. Window
// positions past it need no bookkeeping: the chained tail partial covers
// every chain-mid and tail token exactly.
func (s *Session) windowPrefixInto(ds *decodeState, n int) {
	ds.winPrefix = ds.winPrefix[:0]
	indexedLen := s.indexedLen
	s.db.cfg.Window.VisitIndices(n, func(i int) {
		if i < indexedLen {
			ds.winPrefix = append(ds.winPrefix, i)
		}
	})
}

// sparseOutputInto merges partial attention over (i) the retrieved and
// windowed positions of the reused prefix and (ii) the session tail, each
// computed where the data resides (§7.2 data-centric attention), into
// res.Output. The two partials run back-to-back on this goroutine, each in
// its own arena: parts[0].Output aliases scPrefix while the tail partial
// fills scTail. Decode parallelism comes from the task fan-out in
// AttentionAllInto, one task per (layer, head or KV group), so the step
// stays allocation-free once warm on every pool. A group task's full plan
// passes the head's prefix logits, which cover the whole indexed prefix.
// It returns the attended token count.
func (s *Session) sparseOutputInto(ds *decodeState, plan query.Plan, layer, kv int, q []float32, res *AttentionResult, retrieved []int, logits []float32) int {
	prefixIdx := ds.prefixIdx[:0]
	switch {
	case logits != nil:
		// The group pass already scored the prefix; no index list needed.
	case plan.Query == query.KindFull:
		for i := 0; i < s.indexedLen; i++ {
			prefixIdx = append(prefixIdx, i)
		}
	default:
		// Window positions first, then retrieved positions not already in
		// the window: the dedup set is an epoch-cleared bitset over the
		// prefix, not a per-call map.
		ds.seen.Reset(s.indexedLen)
		for _, i := range ds.winPrefix {
			ds.seen.Add(i)
			prefixIdx = append(prefixIdx, i)
		}
		for _, i := range retrieved {
			if ds.seen.Visit(i) {
				prefixIdx = append(prefixIdx, i)
			}
		}
	}
	ds.prefixIdx = prefixIdx
	tailLen := s.tail.SeqLen(layer)

	// The tail side is a chain: the base links' divergent rows inside the
	// reused prefix (mids, root-first), then the session's own tail —
	// bitwise-identical to one contiguous tail cache holding the same rows.
	segs := ds.segs[:0]
	segRows := 0
	for _, m := range s.mids {
		segs = append(segs, attention.KVSpan{K: m.cache.Keys(layer, kv), V: m.cache.Values(layer, kv), Lo: m.lo, Hi: m.hi})
		segRows += m.hi - m.lo
	}
	segs = append(segs, attention.KVSpan{K: s.tail.Keys(layer, kv), V: s.tail.Values(layer, kv), Lo: 0, Hi: tailLen})
	segRows += tailLen
	ds.segs = segs

	prefixN := len(prefixIdx)
	if logits != nil {
		prefixN = len(logits)
	}
	parts := ds.parts[:]
	if s.root != nil && prefixN > 0 {
		parts[0] = s.prefixPartial(ds, layer, kv, q, prefixIdx, logits)
	} else {
		parts[0] = attention.Partial{LSE: math.Inf(-1)}
	}
	parts[1] = attention.OverSegmentsScratch(&ds.scTail, q, segs)

	if cap(res.Output) < len(q) {
		res.Output = make([]float32, len(q))
	} else {
		res.Output = res.Output[:len(q)]
	}
	attention.MergeInto(res.Output, parts)
	res.LSE = attention.CombinedLSE(parts)
	return prefixN + segRows
}

// prefixPartial computes the host-side partial over the indexed prefix —
// the data-centric engine's host half (§7.2), reading the chain root's
// cache. Precomputed logits (a group task's full plan) cover rows
// [0, len(logits)) and replace the index list.
func (s *Session) prefixPartial(ds *decodeState, layer, kv int, q []float32, prefixIdx []int, logits []float32) attention.Partial {
	V := s.root.cache.Values(layer, kv)
	if logits != nil {
		return attention.OverLogitsScratch(&ds.scPrefix, logits, len(q), V, 0, len(logits))
	}
	return attention.OverScratch(&ds.scPrefix, q, s.root.cache.Keys(layer, kv), V, prefixIdx)
}

// materialize produces a cold session's full document and KV cache for
// DB.Store's late-materialization path. Sessions with a reused base take
// the copy-on-write path in Store instead of copying prefix rows here.
func (s *Session) materialize() (*model.Document, *kvcache.Cache, error) {
	if s.base != nil {
		return nil, nil, fmt.Errorf("core: materialize on a session with a reused base; Store shares it copy-on-write")
	}
	mc := s.db.cfg.Model.Config()
	out := kvcache.New(mc.Layers, mc.KVHeads, mc.HeadDim)
	for l := 0; l < mc.Layers; l++ {
		if got := s.ContextLen(l); got != s.doc.Len() {
			return nil, nil, fmt.Errorf("core: layer %d holds %d of %d tokens; prefill before storing", l, got, s.doc.Len())
		}
		for h := 0; h < mc.KVHeads; h++ {
			tk, tv := s.tail.Keys(l, h), s.tail.Values(l, h)
			for i := 0; i < tk.Rows(); i++ {
				out.Append(l, h, tk.Row(i), tv.Row(i))
			}
		}
	}
	doc := &model.Document{Seed: s.doc.Seed, Tokens: append([]model.Token(nil), s.doc.Tokens...)}
	return doc, out, nil
}

// Close releases the session's device registrations and its eviction pin
// on the base chain. Double closes are rejected.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("core: session already closed")
	}
	s.closed = true
	if s.basePinned {
		s.db.mu.Lock()
		s.db.unpinChainLocked(s.base)
		s.db.mu.Unlock()
		s.basePinned = false
	}
	if s.windowH >= 0 {
		return s.db.cfg.Device.Free(s.windowH)
	}
	return nil
}
