package metrics

import (
	"testing"
	"time"
)

// TestTierReloadWindow pins the reload recorder's memory bound: 10 000
// reloads retain at most reloadWindow latencies, while the count and mean
// stay exact all-time figures and the percentiles cover only the most
// recent window.
func TestTierReloadWindow(t *testing.T) {
	var c TierCounters
	const n = 10000
	var sum time.Duration
	for i := 1; i <= n; i++ {
		d := time.Duration(i) * time.Microsecond
		sum += d
		c.RecordReload(d, 1)
	}
	if len(c.recent) > reloadWindow {
		t.Fatalf("retained %d latencies, window is %d", len(c.recent), reloadWindow)
	}
	s := c.Snapshot()
	if s.Reloads != n || s.ReloadHits != n || s.ReloadedBytes != n {
		t.Fatalf("counts %d/%d/%d, want %d", s.Reloads, s.ReloadHits, s.ReloadedBytes, n)
	}
	if want := sum / n; s.ReloadMean != want {
		t.Fatalf("mean %v, want exact %v", s.ReloadMean, want)
	}
	// The window holds reloads n-reloadWindow+1 .. n; nearest-rank
	// percentiles over it.
	lo := n - reloadWindow
	if want := time.Duration(lo+reloadWindow/2) * time.Microsecond; s.ReloadP50 != want {
		t.Fatalf("p50 %v, want %v", s.ReloadP50, want)
	}
	p95 := 0.95 * float64(reloadWindow)
	if want := time.Duration(lo+int(p95+0.5)) * time.Microsecond; s.ReloadP95 != want {
		t.Fatalf("p95 %v, want %v", s.ReloadP95, want)
	}

	var empty TierCounters
	if s := empty.Snapshot(); s.Reloads != 0 || s.ReloadMean != 0 || s.ReloadP50 != 0 {
		t.Fatalf("empty snapshot %+v", s)
	}
}
