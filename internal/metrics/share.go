package metrics

import "sync/atomic"

// ShareCounters measures cross-session prefix sharing: how many
// CreateSession prefix lookups ran, how often one found a reusable prefix
// (resident or spilled), and how many copy-on-write contexts Store has
// created instead of materializing a full copy. Safe for concurrent use;
// the zero value is ready.
type ShareCounters struct {
	lookups   atomic.Int64
	hits      atomic.Int64
	spillHits atomic.Int64
	cowStores atomic.Int64
}

// ShareSnapshot is a point-in-time copy of the counters.
type ShareSnapshot struct {
	// PrefixLookups counts CreateSession prefix lookups.
	PrefixLookups int64
	// PrefixHits counts lookups that found a non-empty reusable prefix.
	PrefixHits int64
	// PrefixSpillHits counts hits served by reloading a spilled context
	// rather than a resident one.
	PrefixSpillHits int64
	// CoWStores counts Store calls that produced a copy-on-write context
	// (shared base + owned tail) instead of a materialized copy.
	CoWStores int64
}

// RecordLookup counts one prefix lookup and whether it found a prefix.
func (c *ShareCounters) RecordLookup(hit bool) {
	c.lookups.Add(1)
	if hit {
		c.hits.Add(1)
	}
}

// RecordSpillHit counts one lookup served from the spill tier.
func (c *ShareCounters) RecordSpillHit() { c.spillHits.Add(1) }

// RecordCoWStore counts one copy-on-write Store.
func (c *ShareCounters) RecordCoWStore() { c.cowStores.Add(1) }

// Snapshot returns a copy of the counters.
func (c *ShareCounters) Snapshot() ShareSnapshot {
	return ShareSnapshot{
		PrefixLookups:   c.lookups.Load(),
		PrefixHits:      c.hits.Load(),
		PrefixSpillHits: c.spillHits.Load(),
		CoWStores:       c.cowStores.Load(),
	}
}
