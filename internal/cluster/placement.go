// Package cluster implements the distributed attention shard router: a
// serve.Core that owns no KV substrate of its own but places contexts on
// a static set of remote alayad nodes, proxies session calls to the
// owning node over pooled gRPC connections, and — for contexts long
// enough to range-shard — fans attention and decode steps across the
// shard nodes and folds the per-node partials through the log-sum-exp
// merge (attention.MergeInto), the same identity the single-node engine
// uses to fold its prefix and tail partials.
//
// Placement is rendezvous hashing over the document hash, so every
// router instance over the same peer list agrees on ownership with no
// coordination, and removing one node only moves that node's contexts.
// Range shards are derived from the document length and the shard
// threshold alone — never from the topology — so a sharded context
// computes the same spans, and therefore the same per-shard attention
// partials, on one node or ten.
package cluster

import "hash/fnv"

// Span is one contiguous token range of a sharded context. Hi == 0 marks
// the open tail span: the shard that also ingests decoded tokens.
type Span struct {
	Lo, Hi int
}

// Open reports whether the span is the open tail.
func (s Span) Open() bool { return s.Hi == 0 }

// Spans derives the range shards for a document of n tokens under a
// shard threshold. A single open span — whole-context placement — comes
// back when sharding is off (threshold <= 0) or the document is short.
// The split depends only on n and threshold: topology never leaks into
// span geometry, which is what keeps sharded results invariant across
// cluster sizes.
func Spans(n, threshold int) []Span {
	if threshold <= 0 || n <= threshold {
		return []Span{{Lo: 0, Hi: 0}}
	}
	k := (n + threshold - 1) / threshold
	size := (n + k - 1) / k
	var spans []Span
	lo := 0
	for lo+size < n {
		spans = append(spans, Span{Lo: lo, Hi: lo + size})
		lo += size
	}
	return append(spans, Span{Lo: lo, Hi: 0})
}

// rendezvousScore ranks one node for one placement key. FNV-1a over the
// (key, salt, addr) triple: deterministic across processes, no shared
// state, and a dead node's keys redistribute over the survivors without
// moving anyone else's.
func rendezvousScore(key, salt uint64, addr string) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(key >> (8 * i))
		buf[8+i] = byte(salt >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(addr))
	return h.Sum64()
}

// rendezvousPick returns the index of the highest-scoring addr for
// (key, salt); ties break to the lower index. Placement ignores health
// on purpose: ownership must be a pure function of the configured
// topology, and a dead owner surfaces as a typed unavailable error, not
// as silent re-placement that would strand the context when the node
// returns.
func rendezvousPick(key, salt uint64, addrs []string) int {
	best, bestScore := 0, uint64(0)
	for i, addr := range addrs {
		if score := rendezvousScore(key, salt, addr); i == 0 || score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}
