package metrics

import (
	"sync"
	"time"
)

// reloadWindow is how many of the most recent reload latencies the reload
// percentiles are computed over; the count and mean cover every reload.
const reloadWindow = 1024

// TierCounters measures the two-tier context store: how often eviction
// spills a context to disk instead of dropping it, how often a returning
// request is served by reloading a spilled context (hit) versus paying a
// full re-prefill (miss), and how long reloads take. Memory stays bounded
// on a long-running node: reload latencies are kept in a ring of the last
// reloadWindow samples beside an exact all-time count and sum. Safe for
// concurrent use; the zero value is ready.
type TierCounters struct {
	mu            sync.Mutex
	spills        int64
	spillErrors   int64
	spillDrops    int64
	reloadHits    int64
	reloadMisses  int64
	reloadErrors  int64
	spilledBytes  int64 // cumulative bytes written to the spill tier
	reloadedBytes int64 // cumulative bytes read back from the spill tier
	reloads       int   // all-time reload count
	reloadSum     time.Duration
	recent        []time.Duration // ring of the last reloadWindow latencies
}

// TierSnapshot is a point-in-time copy of the counters, with the reload
// latency distribution summarised.
type TierSnapshot struct {
	// Spills counts contexts written to the spill tier on eviction.
	Spills int64
	// SpillErrors counts evictions that tried to spill but failed (the
	// context is dropped, as an unspilled eviction would be).
	SpillErrors int64
	// SpillDrops counts spilled contexts deleted to honour the spill-tier
	// byte budget.
	SpillDrops int64
	// ReloadHits counts sessions whose prefix was served by reloading a
	// spilled context.
	ReloadHits int64
	// ReloadMisses counts cold sessions: the catalog was consulted and held
	// nothing usable, so the caller pays full re-prefill.
	ReloadMisses int64
	// ReloadErrors counts reloads that failed (corrupt or vanished spill).
	ReloadErrors int64
	// SpilledBytes and ReloadedBytes are cumulative tier traffic.
	SpilledBytes  int64
	ReloadedBytes int64
	// Reloads and ReloadMean cover every reload; ReloadP50 and ReloadP95
	// cover the last reloadWindow.
	Reloads    int
	ReloadMean time.Duration
	ReloadP50  time.Duration
	ReloadP95  time.Duration
}

// RecordSpill counts one context spilled to disk.
func (c *TierCounters) RecordSpill(bytes int64) {
	c.mu.Lock()
	c.spills++
	c.spilledBytes += bytes
	c.mu.Unlock()
}

// RecordSpillError counts one failed spill (the context is dropped).
func (c *TierCounters) RecordSpillError() {
	c.mu.Lock()
	c.spillErrors++
	c.mu.Unlock()
}

// RecordSpillDrop counts one spilled context deleted for spill-budget
// capacity.
func (c *TierCounters) RecordSpillDrop() {
	c.mu.Lock()
	c.spillDrops++
	c.mu.Unlock()
}

// RecordReload counts one successful reload with its wall-clock latency and
// the bytes brought back into memory.
func (c *TierCounters) RecordReload(d time.Duration, bytes int64) {
	c.mu.Lock()
	c.reloadHits++
	c.reloadedBytes += bytes
	if len(c.recent) < reloadWindow {
		c.recent = append(c.recent, d)
	} else {
		c.recent[c.reloads%reloadWindow] = d
	}
	c.reloads++
	c.reloadSum += d
	c.mu.Unlock()
}

// RecordReloadMiss counts one cold session the spill tier could not serve.
func (c *TierCounters) RecordReloadMiss() {
	c.mu.Lock()
	c.reloadMisses++
	c.mu.Unlock()
}

// RecordReloadError counts one failed reload.
func (c *TierCounters) RecordReloadError() {
	c.mu.Lock()
	c.reloadErrors++
	c.mu.Unlock()
}

// Snapshot returns a copy of the counters.
func (c *TierCounters) Snapshot() TierSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	window := Latency{samples: append([]time.Duration(nil), c.recent...)}
	var mean time.Duration
	if c.reloads > 0 {
		mean = c.reloadSum / time.Duration(c.reloads)
	}
	return TierSnapshot{
		Spills:        c.spills,
		SpillErrors:   c.spillErrors,
		SpillDrops:    c.spillDrops,
		ReloadHits:    c.reloadHits,
		ReloadMisses:  c.reloadMisses,
		ReloadErrors:  c.reloadErrors,
		SpilledBytes:  c.spilledBytes,
		ReloadedBytes: c.reloadedBytes,
		Reloads:       c.reloads,
		ReloadMean:    mean,
		ReloadP50:     window.Percentile(50),
		ReloadP95:     window.Percentile(95),
	}
}
