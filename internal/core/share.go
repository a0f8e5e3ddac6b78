package core

import (
	"fmt"

	"repro/internal/metrics"
)

// Refcounting for shared prefix chains. A context's refs counts its pins:
// active sessions attached to it or to a descendant (the whole chain from
// the attach point to the root is pinned), and resident derived contexts
// (registerLocked pins the base chain; eviction of the derived unpins
// it). Eviction treats refs > 0 as untouchable, which is what makes a
// shared prefix — KV rows and graph indexes — a unit that cannot
// be dropped while anything depends on it. All refs traffic happens under
// db.mu.

// pinChainLocked pins ctx and every ancestor. Caller holds db.mu.
func (db *DB) pinChainLocked(ctx *Context) {
	for c := ctx; c != nil; c = c.base {
		c.refs++
	}
}

// unpinChainLocked releases one pin from ctx and every ancestor. Caller
// holds db.mu.
func (db *DB) unpinChainLocked(ctx *Context) {
	for c := ctx; c != nil; c = c.base {
		c.refs--
		if c.refs < 0 {
			panic(fmt.Sprintf("core: context %016x refcount underflow", c.hash))
		}
	}
}

// SharingStats summarises cross-session prefix sharing for stats
// endpoints and tooling.
type SharingStats struct {
	// SharedContexts is the number of resident copy-on-write contexts
	// (contexts referencing a base chain instead of owning their prefix).
	SharedContexts int
	// PinnedContexts is the number of resident contexts currently pinned
	// (by sessions or resident descendants) and therefore unevictable.
	PinnedContexts int
	// SharedPrefixBytes is the resident bytes the copy-on-write contexts
	// reference in their base chains without owning them — the bytes an
	// unshared Store would have duplicated per context.
	SharedPrefixBytes int64
	// PrefixTreeDocs is the number of documents indexed by the resident
	// prefix tree.
	PrefixTreeDocs int
	// Counters is the activity snapshot: lookups, hits, spill hits, CoW
	// stores.
	Counters metrics.ShareSnapshot
}

// SharingStats returns a snapshot of the prefix-sharing machinery.
func (db *DB) SharingStats() SharingStats {
	st := SharingStats{Counters: db.share.Snapshot()}
	db.mu.RLock()
	for _, ctx := range db.contexts {
		if ctx.refs > 0 {
			st.PinnedContexts++
		}
		if ctx.base != nil {
			st.SharedContexts++
			for c := ctx.base; c != nil; c = c.base {
				st.SharedPrefixBytes += c.Bytes()
			}
		}
	}
	db.mu.RUnlock()
	st.PrefixTreeDocs = db.tree.Len()
	return st
}
