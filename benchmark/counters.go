package main

import (
	"math"

	"repro/internal/metrics"
)

// counters is every count the program itself keeps, summed over nodes,
// taken before and after a phase and reported as the difference — so a
// ratio is measured where the work happens, not inferred from timings.
type counters struct {
	prefixLookups, prefixHits, prefixSpillHits, cowStores float64
	evictions                                             float64
	spills, spillErrors, reloadErrors, reloads            float64
	reloadNanos                                           float64
	bufHits, bufMisses                                    float64
	indexBuilds, indexBuildMs                             float64
	admitted, rejected, waves, items                      float64
	stepCalls, stepErrs, epErrs, stepMillis               float64
	routed, fanouts, fanoutCalls, merges                  float64
	unavailable, retries                                  float64
	nodeCalls                                             []float64

	// Gauges (not differenced).
	maxWave       float64
	stepMaxMillis float64
	diskBytes     float64
	sharedPrefixB float64
}

// differenced lists the fields since subtracts.
func (c *counters) differenced() []*float64 {
	return []*float64{
		&c.prefixLookups, &c.prefixHits, &c.prefixSpillHits, &c.cowStores, &c.evictions,
		&c.spills, &c.spillErrors, &c.reloadErrors, &c.reloads, &c.reloadNanos, &c.bufHits, &c.bufMisses,
		&c.indexBuilds, &c.indexBuildMs, &c.admitted, &c.rejected, &c.waves, &c.items,
		&c.stepCalls, &c.stepErrs, &c.epErrs, &c.stepMillis,
		&c.routed, &c.fanouts, &c.fanoutCalls, &c.merges, &c.unavailable, &c.retries,
	}
}

// stepEndpoint is the service endpoint a workload's steps arrive on.
func (b *bench) stepEndpoint() string {
	if b.spec.batch > 0 {
		return metrics.EPStepStream.String()
	}
	return metrics.EPStep.String()
}

func (b *bench) snapshot() counters {
	var c counters
	ep := b.stepEndpoint()
	for _, n := range b.nodes {
		sh := n.db.SharingStats()
		c.prefixLookups += float64(sh.Counters.PrefixLookups)
		c.prefixHits += float64(sh.Counters.PrefixHits)
		c.prefixSpillHits += float64(sh.Counters.PrefixSpillHits)
		c.cowStores += float64(sh.Counters.CoWStores)
		c.sharedPrefixB += float64(sh.SharedPrefixBytes)
		c.evictions += float64(n.db.Evictions())
		ts := n.db.TierStats()
		c.spills += float64(ts.Counters.Spills)
		c.spillErrors += float64(ts.Counters.SpillErrors)
		c.reloadErrors += float64(ts.Counters.ReloadErrors)
		c.reloads += float64(ts.Counters.Reloads)
		c.reloadNanos += float64(ts.Counters.ReloadMean) * float64(ts.Counters.Reloads)
		c.bufHits += float64(ts.Buffer.Hits)
		c.bufMisses += float64(ts.Buffer.Misses)
		c.diskBytes += float64(ts.SpilledDiskBytes)
		cp := n.db.CtxParStats()
		c.indexBuilds += float64(cp.IndexBuilds)
		c.indexBuildMs += float64(cp.IndexBuildMillis)
		if sch := n.svc.Scheduler(); sch != nil {
			ss := sch.Stats()
			c.admitted += float64(ss.Admitted)
			c.rejected += float64(ss.Rejected)
			c.waves += float64(ss.Waves)
			c.items += float64(ss.Items)
			c.maxWave = math.Max(c.maxWave, float64(ss.MaxWave))
		}
		for _, e := range n.svc.EndpointStats() {
			c.epErrs += float64(e.Errors)
			if e.Endpoint == ep {
				c.stepCalls += float64(e.Requests)
				c.stepErrs += float64(e.Errors)
				c.stepMillis += e.MeanMillis * float64(e.Requests)
				c.stepMaxMillis = math.Max(c.stepMaxMillis, e.MaxMillis)
			}
		}
	}
	if b.router != nil {
		if st, err := b.router.Stats(); err == nil && st.Cluster != nil {
			cl := st.Cluster
			c.routed, c.fanouts = float64(cl.Routed), float64(cl.Fanouts)
			c.fanoutCalls, c.merges = float64(cl.FanoutCalls), float64(cl.Merges)
			c.unavailable, c.retries = float64(cl.Unavailable), float64(cl.Retries)
			for _, n := range cl.Nodes {
				c.nodeCalls = append(c.nodeCalls, float64(n.Calls))
			}
		}
	}
	return c
}

// since returns the counts accumulated after before was taken; gauges keep
// their current value.
func (c counters) since(before counters) counters {
	d := c
	for i, f := range d.differenced() {
		*f -= *before.differenced()[i]
	}
	d.nodeCalls = append([]float64(nil), c.nodeCalls...)
	for i := range d.nodeCalls {
		if i < len(before.nodeCalls) {
			d.nodeCalls[i] -= before.nodeCalls[i]
		}
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
