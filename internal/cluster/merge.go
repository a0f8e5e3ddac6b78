package cluster

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/attention"
	"repro/internal/serve"
)

// restoreLSE undoes the wire's −Inf sentinel: any LSE at or below
// serve.LSESentinel is an empty partial (nothing attended on that
// shard).
func restoreLSE(lse float64) float64 {
	if lse <= serve.LSESentinel {
		return math.Inf(-1)
	}
	return lse
}

// mergeHead folds one query head's per-shard responses — in fixed span
// order — into the head's final output through the log-sum-exp identity,
// the same attention.MergeInto fold the engine uses for its in-process
// shards. Every partial enters the fold with its LSE restored; the fold
// skips empty (−Inf) partials, so a single live partial passes through
// bitwise (its merge weight is exactly 1).
func mergeHead(parts []*serve.AttentionResponse) serve.AttentionResponse {
	merged := serve.AttentionResponse{LSE: serve.LSESentinel}
	folded := make([]attention.Partial, len(parts))
	plans := make([]string, 0, len(parts))
	dim := 0
	for i, p := range parts {
		merged.Retrieved += p.Retrieved
		merged.Attended += p.Attended
		plans = append(plans, p.Plan)
		if len(p.Output) > dim {
			dim = len(p.Output)
		}
		folded[i] = attention.Partial{Output: p.Output, LSE: restoreLSE(p.LSE), Count: p.Attended}
	}
	merged.Plan = fmt.Sprintf("merge[%s]", strings.Join(plans, " | "))
	merged.Output = make([]float32, dim)
	attention.MergeInto(merged.Output, folded)
	if lse := attention.CombinedLSE(folded); !math.IsInf(lse, -1) {
		merged.LSE = lse
	}
	return merged
}

// mergeHeads folds per-shard multi-head responses head by head. Each
// element of byShard holds one shard's outputs for every head, in span
// order; all shards answer the same head count.
func mergeHeads(byShard [][]serve.AttentionResponse) []serve.AttentionResponse {
	if len(byShard) == 0 {
		return nil
	}
	heads := len(byShard[0])
	out := make([]serve.AttentionResponse, heads)
	parts := make([]*serve.AttentionResponse, len(byShard))
	for h := 0; h < heads; h++ {
		for s := range byShard {
			parts[s] = &byShard[s][h]
		}
		out[h] = mergeHead(parts)
	}
	return out
}
