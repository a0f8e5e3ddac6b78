package core

import (
	"fmt"

	"repro/internal/kvcache"
)

// Context-store capacity management: a DB configured with a byte budget
// evicts the least-recently-used stored contexts when imports push it over.
// "Used" means reused by a session (CreateSession) or freshly imported.
// Eviction only removes the context from the reuse store — sessions already
// holding it keep working (the context is immutable and garbage-collected
// when the last session drops it). With a spill directory configured
// (Config.SpillDir), evicted contexts are not dropped: the caller spills
// them to the disk tier, from which a later session reloads them instead of
// paying full re-prefill (see tier.go).

// ContextBudget returns the configured stored-context byte budget
// (0 = unlimited).
func (db *DB) ContextBudget() int64 { return db.cfg.ContextBudget }

// StoredBytes returns the total KV + index footprint of all stored
// contexts.
func (db *DB) StoredBytes() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.storedBytesLocked()
}

func (db *DB) storedBytesLocked() int64 {
	var n int64
	for _, ctx := range db.contexts {
		n += ctx.Bytes()
	}
	return n
}

// Bytes returns a stored context's total footprint: KV cache plus graph
// adjacency.
func (ctx *Context) Bytes() int64 {
	return ctx.cache.Bytes() + ctx.IndexBytes()
}

// StoredKVBytes returns the KV footprint of all resident contexts split by
// plane (fp32 keys, fp32 values).
func (db *DB) StoredKVBytes() kvcache.ByteSizes {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var b kvcache.ByteSizes
	for _, ctx := range db.contexts {
		s := ctx.cache.BytesSplit()
		b.Keys += s.Keys
		b.Values += s.Values
	}
	return b
}

// touch marks ctx most-recently-used. Caller holds db.mu for writing.
func (db *DB) touchLocked(ctx *Context) {
	db.clock++
	ctx.lastUsed = db.clock
}

// enforceBudgetLocked evicts least-recently-used contexts until the store
// fits the budget, never evicting the context passed in (the one just
// imported or about to be used) and never evicting a pinned context
// (refs > 0: an active session or a resident derived context depends on
// its rows). When only pins stand between the store and the budget the
// loop stops without error — the store runs transiently over budget until
// the pins release — but a store over budget with nothing pinned and
// nothing evictable is a configuration error. It returns the evicted
// contexts so the caller can spill them to the disk tier once the lock is
// released — SaveContext is file I/O and must not run under db.mu. Caller
// holds db.mu for writing.
func (db *DB) enforceBudgetLocked(keep *Context) ([]*Context, error) {
	if db.cfg.ContextBudget <= 0 {
		return nil, nil
	}
	var victims []*Context
	for db.storedBytesLocked() > db.cfg.ContextBudget {
		victim := -1
		pinnedSkipped := false
		for i, ctx := range db.contexts {
			if ctx == keep {
				continue
			}
			if ctx.refs > 0 {
				pinnedSkipped = true
				continue
			}
			if victim == -1 || ctx.lastUsed < db.contexts[victim].lastUsed {
				victim = i
			}
		}
		if victim == -1 {
			if pinnedSkipped {
				return victims, nil
			}
			return victims, fmt.Errorf("core: context store over budget (%d > %d) with nothing evictable",
				db.storedBytesLocked(), db.cfg.ContextBudget)
		}
		victims = append(victims, db.contexts[victim])
		db.evictLocked(victim)
	}
	return victims, nil
}

// evictLocked removes db.contexts[i] from the resident store and unwinds
// its registration: prefix-tree entry, hash index, residency mark, and —
// for a copy-on-write context — the pin it held on its base chain, which
// may make an ancestor evictable in the same budget pass (chains drain
// leaf-first). Caller holds db.mu for writing and has verified refs == 0.
func (db *DB) evictLocked(i int) {
	ctx := db.contexts[i]
	db.contexts = append(db.contexts[:i], db.contexts[i+1:]...)
	ctx.resident = false
	db.tree.Remove(ctx.doc, ctx)
	if db.byHash[ctx.hash] == ctx {
		delete(db.byHash, ctx.hash)
	}
	if ctx.base != nil {
		db.unpinChainLocked(ctx.base)
	}
	db.evictions++
}

// Evictions returns how many stored contexts have been evicted for
// capacity.
func (db *DB) Evictions() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.evictions
}
