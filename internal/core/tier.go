package core

// The disk spill tier (tier.go) makes the DB a two-tier context store.
// Eviction under Config.ContextBudget no longer destroys a context: with
// Config.SpillDir set, the victim is persisted through the SaveContext
// machinery into a DB-managed spill directory and catalogued (document
// hash → spill path, byte size, LRU clock). CreateSession consults the
// catalog during prefix matching; a spilled context with a longer matching
// prefix than any resident one is reloaded — off the store lock, with
// concurrent requests for the same context collapsed into one load — and
// re-registered as a resident. A reload reads each file of the context
// directory once, directly — the same reader LoadContext uses.

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
)

// spillEntry is one catalogued spilled context: where it lives on disk,
// the document it holds (kept in memory so prefix matching never touches
// the disk), its on-disk footprint, and its recency under the catalog's
// LRU clock. A copy-on-write tail additionally records its base's hash
// and covered prefix length, mirroring the manifest: the catalog tracks
// the dependency so budget enforcement never deletes a base a spilled
// tail still needs.
type spillEntry struct {
	hash     uint64
	dir      string
	doc      *model.Document
	bytes    int64 // on-disk footprint (all files of the context directory)
	lastUsed int64
	baseHash uint64 // DocHash of the base context; 0 for a root
	baseLen  int    // prefix rows served by the base chain
}

// reloadOp collapses concurrent reloads of the same spilled context: the
// first requester loads, everyone else waits on done and shares the result.
type reloadOp struct {
	done chan struct{}
	ctx  *Context
	err  error
}

// tierState is the DB's spill tier: the on-disk catalog and the tier
// counters. Its mutex guards the catalog maps and clock only — never held
// across file I/O.
type tierState struct {
	dir    string
	budget int64

	counters metrics.TierCounters

	mu        sync.Mutex
	entries   map[uint64]*spillEntry
	inflight  map[uint64]*reloadOp
	spilling  map[uint64]bool // hashes being written by spillOne right now
	baseRefs  map[uint64]int  // catalogued tails depending on each base hash
	clock     int64
	diskBytes int64

	// tree indexes the catalogued documents for CreateSession's prefix
	// lookup — the disk-tier twin of the DB's resident tree. It has its own
	// lock; tree operations under t.mu are fine (nothing takes t.mu while
	// holding the tree's lock).
	tree *prefixTree[*spillEntry]

	// draining indexes the contexts behind spilling by document, the same
	// way. Until its spill commits a victim is neither resident nor
	// catalogued, yet whole in memory: CreateSession reclaims it from here
	// (reclaimDraining) instead of re-prefilling it from scratch.
	draining *prefixTree[*Context]
}

// addEntryLocked catalogs e: hash map, disk accounting, prefix index, and
// the base dependency count for a copy-on-write tail. Caller holds t.mu.
func (t *tierState) addEntryLocked(e *spillEntry) {
	t.entries[e.hash] = e
	t.diskBytes += e.bytes
	if e.baseHash != 0 {
		t.baseRefs[e.baseHash]++
	}
	t.tree.Insert(e.doc, e)
}

// removeEntryLocked drops e from the catalog and releases its base
// dependency. Caller holds t.mu and deletes the directory afterwards,
// outside the lock (or keeps it, for a reload that leaves the files for
// dependants). Caller holds t.mu.
func (t *tierState) removeEntryLocked(e *spillEntry) {
	delete(t.entries, e.hash)
	t.diskBytes -= e.bytes
	if e.baseHash != 0 {
		if t.baseRefs[e.baseHash]--; t.baseRefs[e.baseHash] <= 0 {
			delete(t.baseRefs, e.baseHash)
		}
	}
	t.tree.Remove(e.doc, e)
}

// initTier creates the spill directory and recovers any compatible spilled
// contexts already present (a previous process's spill tier survives
// restarts).
func (db *DB) initTier() error {
	if err := os.MkdirAll(db.cfg.SpillDir, 0o755); err != nil {
		return fmt.Errorf("core: spill dir: %w", err)
	}
	t := &tierState{
		dir:      db.cfg.SpillDir,
		budget:   db.cfg.SpillBudget,
		entries:  make(map[uint64]*spillEntry),
		inflight: make(map[uint64]*reloadOp),
		spilling: make(map[uint64]bool),
		baseRefs: make(map[uint64]int),
		draining: newPrefixTree[*Context](db.cfg.PrefixChunk),
		tree:     newPrefixTree[*spillEntry](db.cfg.PrefixChunk),
	}
	db.tier = t
	db.recoverSpilled()
	return nil
}

// DocHash fingerprints a document: seed plus every token field, FNV-1a.
// It names spill directories and keys the spill catalog; two documents
// hash equal only if their KV caches would be byte-identical.
func DocHash(doc *model.Document) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(doc.Seed)
	for _, tok := range doc.Tokens {
		put(uint64(int64(tok.Topic)))
		put(uint64(int64(tok.Payload)))
		put(uint64(math.Float32bits(tok.Salience)))
	}
	return h.Sum64()
}

// spillDirName returns the catalog directory for a document hash.
func spillDirName(root string, hash uint64) string {
	return filepath.Join(root, fmt.Sprintf("ctx-%016x", hash))
}

// dirBytes sums the sizes of a directory's regular files.
func dirBytes(dir string) int64 {
	var n int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// spillAll persists evicted contexts to the disk tier. No-op without a
// configured tier (eviction then destroys the contexts, the pre-tier
// behaviour). Called with no DB locks held; the victims are already out of
// the resident store and immutable.
func (db *DB) spillAll(victims []*Context) {
	if db.tier == nil {
		return
	}
	for _, ctx := range victims {
		db.spillOne(ctx)
	}
}

// spillOne writes one evicted context to the spill directory and catalogs
// it. A failed save is counted and the context is dropped — exactly what an
// unspilled eviction would have done. Spill directories are write-once and
// content-addressed: if the hash is already catalogued (identical bytes on
// disk), being reloaded, or being written by another eviction, this spill
// is redundant and skipped — never rewriting a directory a concurrent
// reader may be paging from.
//
// A copy-on-write context spills its base chain first, root outward: the
// tail's manifest names the base by hash, so the base's directory must
// exist for the tail to ever be reloadable — even though the base itself
// is still resident (it was pinned by this context until the eviction
// released it). The shared prefix bytes land on disk exactly once however
// many tails reference them; each chain link's write is skipped when its
// hash is already catalogued.
func (db *DB) spillOne(ctx *Context) {
	if ctx.base != nil {
		db.spillOne(ctx.base)
	}
	t := db.tier
	hash := ctx.hash
	if hash == 0 {
		hash = DocHash(ctx.doc)
	}
	t.mu.Lock()
	if e, ok := t.entries[hash]; ok {
		t.clock++
		e.lastUsed = t.clock
		t.mu.Unlock()
		return
	}
	if t.inflight[hash] != nil || t.spilling[hash] {
		t.mu.Unlock()
		return
	}
	t.spilling[hash] = true
	t.draining.Insert(ctx.doc, ctx)
	t.mu.Unlock()

	dir := spillDirName(t.dir, hash)
	err := db.SaveContext(ctx, dir)
	bytes := int64(0)
	if err == nil {
		bytes = dirBytes(dir)
	} else {
		os.RemoveAll(dir)
	}

	t.mu.Lock()
	delete(t.spilling, hash)
	var drops []*spillEntry
	if err == nil {
		t.clock++
		e := &spillEntry{hash: hash, dir: dir, doc: ctx.doc, bytes: bytes, lastUsed: t.clock, baseLen: ctx.baseLen}
		if ctx.base != nil {
			e.baseHash = ctx.base.hash
			if e.baseHash == 0 {
				e.baseHash = DocHash(ctx.base.doc)
			}
		}
		t.addEntryLocked(e)
		drops = t.enforceSpillBudgetLocked(hash)
	}
	// Catalogued before it leaves draining: a lookup always finds it in one.
	t.draining.Remove(ctx.doc, ctx)
	t.mu.Unlock()

	if err != nil {
		t.counters.RecordSpillError()
		return
	}
	t.counters.RecordSpill(bytes)
	for _, d := range drops {
		os.RemoveAll(d.dir)
		t.counters.RecordSpillDrop()
	}
}

// enforceSpillBudgetLocked removes least-recently-used catalog entries
// until the disk tier fits its budget, never dropping the entry just
// written. It returns the dropped entries; the caller deletes their
// directories outside the lock. Caller holds t.mu.
func (t *tierState) enforceSpillBudgetLocked(keep uint64) []*spillEntry {
	if t.budget <= 0 {
		return nil
	}
	var drops []*spillEntry
	for t.diskBytes > t.budget {
		var victim *spillEntry
		for _, e := range t.entries {
			// Never drop the entry just written, one a reload leader is
			// actively reading from disk, or a base some catalogued
			// copy-on-write tail still resolves through — deleting it would
			// strand the tail unloadable. Dropping a tail releases its base
			// for the next iteration of this loop, so chains drain tail
			// first.
			if e.hash == keep || t.inflight[e.hash] != nil || t.baseRefs[e.hash] > 0 {
				continue
			}
			if victim == nil || e.lastUsed < victim.lastUsed {
				victim = e
			}
		}
		if victim == nil {
			break // everything left is protected; keep it
		}
		t.removeEntryLocked(victim)
		drops = append(drops, victim)
	}
	return drops
}

// recoverSpilled adopts spilled contexts left by a previous process:
// every ctx-* subdirectory whose manifest matches the DB's model
// configuration re-enters the catalog. Incompatible or unreadable
// directories are skipped, not deleted — they may belong to another
// deployment sharing the directory.
func (db *DB) recoverSpilled() {
	t := db.tier
	dirs, err := os.ReadDir(t.dir)
	if err != nil {
		return
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		dir := filepath.Join(t.dir, d.Name())
		man, err := db.readManifest(dir)
		if err != nil {
			continue
		}
		doc := &model.Document{Seed: man.Seed, Tokens: man.Tokens}
		hash := DocHash(doc)
		if spillDirName(t.dir, hash) != dir {
			continue // name does not match content; treat as foreign
		}
		t.mu.Lock()
		if _, ok := t.entries[hash]; !ok {
			t.clock++
			bytes := dirBytes(dir)
			t.addEntryLocked(&spillEntry{hash: hash, dir: dir, doc: doc, bytes: bytes, lastUsed: t.clock,
				baseHash: man.BaseHash, baseLen: man.BaseLen})
		}
		t.mu.Unlock()
	}
}

// reclaimDraining returns a victim whose spill is still being written,
// registered back as a resident, when its common prefix with doc beats
// bestLen (the best resident match); otherwise (nil, 0). It reads no disk.
// The spill still completes and catalogues the directory, so the context
// is then resident and on disk at once — the state a reloaded base with
// spilled dependants is already in — and a later eviction of it skips the
// rewrite.
func (db *DB) reclaimDraining(doc *model.Document, bestLen int) (*Context, int) {
	t := db.tier
	if t == nil {
		return nil, 0
	}
	ctx, n := t.draining.Lookup(doc)
	if ctx == nil || n <= bestLen {
		return nil, 0
	}
	if err := db.registerContext(ctx); err != nil {
		return nil, 0
	}
	return ctx, n
}

// reloadForPrefix consults the spill catalog for a context whose common
// prefix with doc beats bestLen (the best resident match). On a hit the
// spilled context is reloaded and returned with its prefix length; on a
// miss — or with no tier configured — it returns (nil, 0). A session that
// starts fully cold (no resident and no spilled prefix) counts as a tier
// miss; a reload that fails counts a reload error (surfaced through
// TierStats) and falls back to the resident match.
//
// The catalog search runs through the tier's prefix tree — O(prefix/chunk)
// like the resident lookup, not a scan of every entry. When the winning
// entry is a copy-on-write tail whose shared prefix alone covers the
// match, the reload walks down to the deepest catalogued ancestor that
// still covers it, loading only the chain links actually needed.
func (db *DB) reloadForPrefix(doc *model.Document, bestLen int) (*Context, int) {
	t := db.tier
	if t == nil {
		return nil, 0
	}
	best, plen := t.tree.Lookup(doc)
	if best == nil || plen <= bestLen {
		if bestLen == 0 {
			t.counters.RecordReloadMiss()
		}
		return nil, 0
	}
	t.mu.Lock()
	for best.baseHash != 0 && plen <= best.baseLen {
		be, ok := t.entries[best.baseHash]
		if !ok {
			break // base is resident or gone; reload what we have
		}
		best = be
	}
	t.mu.Unlock()
	ctx, err := db.reloadSpilled(best)
	if err != nil {
		if bestLen == 0 {
			t.counters.RecordReloadMiss()
		}
		return nil, 0
	}
	return ctx, plen
}

// resolveSpilledBase materializes a base hash for a copy-on-write reload:
// resident contexts win (no disk touched); otherwise the base's own spill
// entry is reloaded recursively, which re-registers it as a resident.
func (db *DB) resolveSpilledBase(hash uint64) (*Context, error) {
	db.mu.RLock()
	ctx := db.byHash[hash]
	db.mu.RUnlock()
	if ctx != nil {
		return ctx, nil
	}
	t := db.tier
	t.mu.Lock()
	e, ok := t.entries[hash]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: base context %016x neither resident nor spilled", hash)
	}
	return db.reloadSpilled(e)
}

// reloadSpilled brings a spilled context back into the resident store.
// Concurrent reloads of the same context collapse into one disk load (the
// followers block until the leader finishes and share its result). On
// success the context is registered as a resident — which may in turn
// spill another context — and the spill entry is consumed: catalog entry
// removed, directory deleted. A failed reload also consumes the entry; a
// spill that cannot be read back will not be read better on retry.
// Exception: an entry that catalogued copy-on-write tails still depend on
// (baseRefs > 0) is never consumed — its directory must outlive the reload
// so the tails stay resolvable, including across a restart — so the
// context then exists both resident and on disk until the last dependant
// goes away.
func (db *DB) reloadSpilled(e *spillEntry) (*Context, error) {
	t := db.tier
	t.mu.Lock()
	if cur, ok := t.entries[e.hash]; !ok || cur != e {
		t.mu.Unlock()
		if op := t.waitInflight(e.hash); op != nil {
			return op.ctx, op.err
		}
		return nil, fmt.Errorf("core: spilled context %016x no longer catalogued", e.hash)
	}
	if op, ok := t.inflight[e.hash]; ok {
		t.mu.Unlock()
		<-op.done
		return op.ctx, op.err
	}
	op := &reloadOp{done: make(chan struct{})}
	t.inflight[e.hash] = op
	t.clock++
	e.lastUsed = t.clock
	t.mu.Unlock()

	start := time.Now()
	ctx, err := db.readContextDir(e.dir, db.resolveSpilledBase)
	if err == nil {
		err = db.registerContext(ctx)
	}
	if err == nil {
		t.counters.RecordReload(time.Since(start), e.bytes)
	} else {
		ctx = nil
		t.counters.RecordReloadError()
	}
	// Consume the entry, delete the directory, and only then clear the
	// in-flight marker: spillOne skips in-flight hashes, so no new spill
	// can start writing into the path until the deletion has finished.
	t.mu.Lock()
	removed := false
	if cur, ok := t.entries[e.hash]; ok && cur == e && t.baseRefs[e.hash] == 0 {
		t.removeEntryLocked(e)
		removed = true
	}
	t.mu.Unlock()
	if removed {
		os.RemoveAll(e.dir)
	}
	t.mu.Lock()
	delete(t.inflight, e.hash)
	t.mu.Unlock()

	op.ctx, op.err = ctx, err
	close(op.done)
	return ctx, err
}

// waitInflight blocks on an in-flight reload of hash, if any, and returns
// its completed op.
func (t *tierState) waitInflight(hash uint64) *reloadOp {
	t.mu.Lock()
	op := t.inflight[hash]
	t.mu.Unlock()
	if op == nil {
		return nil
	}
	<-op.done
	return op
}

// TierStats summarises the spill tier for Stats endpoints and tooling.
type TierStats struct {
	// Enabled reports whether a spill tier is configured.
	Enabled bool
	// Dir is the spill directory.
	Dir string
	// SpilledContexts is the number of catalogued spilled contexts.
	SpilledContexts int
	// SpilledDiskBytes is the catalog's current on-disk footprint.
	SpilledDiskBytes int64
	// SpillBudget is the configured disk budget (0 = unlimited).
	SpillBudget int64
	// Counters is the activity snapshot: spills, hits, misses, reload
	// latency.
	Counters metrics.TierSnapshot
	// Buffer is always zero: a reload reads each file once, directly,
	// through no buffer pool. The field stays only while the benchmark
	// harness (benchmark/counters.go) still reads it; the benchmark-only
	// change that drops the storage.buffer.* probes drops it too.
	Buffer struct{ Hits, Misses int64 }
}

// TierStats returns a snapshot of the spill tier. The zero value (Enabled
// false) is returned when no tier is configured.
func (db *DB) TierStats() TierStats {
	t := db.tier
	if t == nil {
		return TierStats{}
	}
	t.mu.Lock()
	n := len(t.entries)
	bytes := t.diskBytes
	t.mu.Unlock()
	return TierStats{
		Enabled:          true,
		Dir:              t.dir,
		SpilledContexts:  n,
		SpilledDiskBytes: bytes,
		SpillBudget:      t.budget,
		Counters:         t.counters.Snapshot(),
	}
}
