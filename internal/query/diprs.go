// Package query implements AlayaDB's query processing (§6): the Dynamic
// Inner-Product Range query (DIPR, Definition 3), its graph-search
// algorithm DIPRS (Algorithm 1) with the window-cache and attribute-
// filtering enhancements of §7.1, and the rule-based query optimizer of
// Figure 8.
package query

import (
	"math"

	"repro/internal/index"
	"repro/internal/vec"
)

// Graph is the index access DIPRS needs; *graph.Graph satisfies it.
type Graph interface {
	// Neighbors returns node i's out-neighbours.
	Neighbors(i int32) []int32
	// Vector returns the key vector of node i.
	Vector(i int32) []float32
	// Entry returns the search entry point.
	Entry() int32
	// Len returns the number of nodes.
	Len() int
}

// Beta converts a critical-token attention-score ratio α ∈ (0, 1] into the
// DIPR range parameter β = −√d·ln(α) (Theorem 1). d is the head dimension.
// Out-of-domain ratios are clamped explicitly instead of leaking NaN into a
// search: α ≤ 0 returns +Inf (an all-tokens band — the limit of α → 0),
// and α > 1 is treated as 1 (β = 0, the argmax-only band).
func Beta(alpha float64, d int) float32 {
	if alpha <= 0 {
		return float32(math.Inf(1))
	}
	if alpha > 1 {
		return 0
	}
	return float32(-math.Sqrt(float64(d)) * math.Log(alpha))
}

// Alpha inverts Beta: the attention-score ratio a β corresponds to.
func Alpha(beta float32, d int) float64 {
	return math.Exp(-float64(beta) / math.Sqrt(float64(d)))
}

// DIPRSConfig tunes Algorithm 1.
type DIPRSConfig struct {
	// Beta is the inner-product range: returned tokens score within Beta of
	// the best token found.
	Beta float32
	// Capacity is l₀, the exploration capacity threshold: the candidate
	// list accepts any point until it holds Capacity entries, ensuring the
	// search escapes local neighbourhoods before β-pruning kicks in.
	// Defaults to 96.
	Capacity int
	// InitialMax seeds the best-so-far inner product, enabling pruning from
	// the very first step. The window-cache enhancement of §7.1 passes the
	// maximum inner product observed in the cached window here. Use
	// negative infinity (or leave zero with HasInitialMax unset) to start
	// cold.
	InitialMax    float32
	HasInitialMax bool
	// Filter restricts results to nodes satisfying the predicate (§7.1
	// attribute filtering). When set, exploration expands 2-hop
	// neighbourhoods through failing nodes so the traversal does not
	// stall at the filter boundary (the ACORN [49] strategy).
	Filter func(id int32) bool
	// MaxExplore caps visited nodes as a safety valve (0 = no cap).
	MaxExplore int
	// MaxResults bounds the returned critical set to the best MaxResults
	// tokens (0 = unlimited). Diffuse heads can have β-bands covering much
	// of the context; production configurations bound the attended set the
	// way InfLLM bounds its block budget.
	MaxResults int
}

// defaults sanitizes the configuration: a NaN β is a programming error and
// panics loudly; a negative β is clamped to 0 — the argmax-only band —
// instead of silently producing an empty result; a non-positive Capacity
// takes the documented default of 96.
func (c *DIPRSConfig) defaults() {
	if math.IsNaN(float64(c.Beta)) {
		panic("query: DIPRSConfig.Beta is NaN")
	}
	if c.Beta < 0 {
		c.Beta = 0
	}
	if c.Capacity <= 0 {
		c.Capacity = 96
	}
	if c.MaxExplore < 0 {
		c.MaxExplore = 0
	}
	if c.MaxResults < 0 {
		c.MaxResults = 0
	}
}

// Result is the outcome of a DIPRS search.
type Result struct {
	// Critical is the critical-token set 𝒄_K, best-first. When the search
	// ran through a SearchState, the slice aliases the state and is valid
	// only until its next search.
	Critical []index.Candidate
	// MaxIP is the best inner product observed (including InitialMax).
	MaxIP float32
	// Explored counts scored nodes — the traversal cost driver.
	Explored int
}

// searchEntry is one candidate-list slot of Algorithm 1.
type searchEntry struct {
	id    int32
	score float32
}

// SearchState is the reusable working set of a DIPRS search: the visited
// set (cleared by an epoch counter instead of reallocation), the growable
// candidate list, the nodes one scan step scores, the β-band buffer, the
// selection heap, and the sorted result slice. A warm state makes repeated
// searches allocation-free. The zero value is ready; a state serves one
// goroutine at a time.
type SearchState struct {
	visited index.VisitSet
	list    []searchEntry
	pending []index.Candidate
	band    []index.Candidate
	heap    index.MinHeap
	out     []index.Candidate
}

// NewSearchState returns an empty search state.
func NewSearchState() *SearchState { return &SearchState{} }

// DIPRS runs Algorithm 1 with a freshly allocated search state. Decode
// loops use DIPRSWith with a reused state instead.
func DIPRS(g Graph, q []float32, cfg DIPRSConfig) Result {
	var st SearchState
	return DIPRSWith(&st, g, q, cfg)
}

// DIPRSWith runs Algorithm 1 inside st's arena: an unordered, growable
// candidate list C is scanned in insertion order; each scanned entry's
// unvisited neighbours are appended if the list is still below its capacity
// threshold (exploration phase) or if they are β-critical w.r.t. the best
// inner product seen so far (pruning phase). The search ends when the scan
// catches up with the list's growth; all β-critical list entries are
// returned (Result.Critical aliases st).
func DIPRSWith(st *SearchState, g Graph, q []float32, cfg DIPRSConfig) Result {
	cfg.defaults()
	n := g.Len()
	if n == 0 {
		return Result{MaxIP: float32(math.Inf(-1))}
	}

	maxIP := float32(math.Inf(-1))
	if cfg.HasInitialMax {
		maxIP = cfg.InitialMax
	}

	st.visited.Reset(n)
	list := st.list[:0]
	explored := 0

	start := g.Entry()
	st.visited.Add(int(start))
	if cfg.Filter == nil || cfg.Filter(start) {
		explored++
		s := vec.Dot(q, g.Vector(start))
		list = append(list, searchEntry{id: start, score: s})
		if s > maxIP {
			maxIP = s
		}
	} else {
		// The entry point fails the predicate: the traversal must still pass
		// through it, but its score must not count — the running maximum is
		// over the filtered subset only, otherwise β-pruning against an
		// excluded token could empty the result. The -Inf score keeps it out
		// of the final critical set.
		list = append(list, searchEntry{id: start, score: float32(math.Inf(-1))})
	}

	// Which nodes a scan step scores never depends on a score — only on
	// the visited set and the filter — so each step first collects them in
	// traversal order, then scores them (fp32 four rows per kernel pass),
	// then applies line 13's accept rule in that same order: exactly the
	// decisions of scoring each node as it is reached.
	pending := st.pending[:0]
	for i := 0; i < len(list); i++ {
		if cfg.MaxExplore > 0 && explored >= cfg.MaxExplore {
			break
		}
		pending = pending[:0]
		for _, v := range g.Neighbors(list[i].id) {
			if st.visited.Visited(int(v)) {
				continue
			}
			st.visited.Add(int(v))
			if cfg.Filter == nil || cfg.Filter(v) {
				pending = append(pending, index.Candidate{ID: v})
				continue
			}
			// ACORN-style 2-hop expansion: pass through the failing node to
			// its neighbours so the filtered region stays connected. The
			// failing node is marked visited; its failing neighbours are left
			// unvisited for other pass-throughs to reach.
			for _, w := range g.Neighbors(v) {
				if st.visited.Visited(int(w)) || !cfg.Filter(w) {
					continue
				}
				st.visited.Add(int(w))
				pending = append(pending, index.Candidate{ID: w})
			}
		}
		explored += len(pending)
		index.Score(q, g.Vector, pending)
		// Line 13: below capacity, accept anything; past it, β-critical only.
		for _, c := range pending {
			if len(list) <= cfg.Capacity || c.Score >= maxIP-cfg.Beta {
				list = append(list, searchEntry{id: c.ID, score: c.Score})
				if c.Score > maxIP {
					maxIP = c.Score
				}
			}
		}
	}
	st.pending = pending[:0]
	st.list = list

	threshold := maxIP - cfg.Beta
	band := st.band[:0]
	for _, e := range list {
		if e.score >= threshold && !math.IsInf(float64(e.score), -1) {
			band = append(band, index.Candidate{ID: e.id, Score: e.score})
		}
	}
	st.band = band
	keep := len(band)
	if cfg.MaxResults > 0 && cfg.MaxResults < keep {
		keep = cfg.MaxResults
	}
	res := st.heap[:0]
	for _, c := range band {
		res.PushBounded(c, keep)
	}
	st.heap = res[:0]
	st.out = res.SortedInto(st.out)
	return Result{Critical: st.out, MaxIP: maxIP, Explored: explored}
}

// WindowMax computes the maximum inner product between q and the key rows
// listed in window — the seed for the window-cache-enhanced DIPRS (§7.1).
// Rows are scored four per vec.Dot4 pass, the last pass padded with the
// last row, so every score is bitwise vec.Dot's.
func WindowMax(q []float32, keys *vec.Matrix, window []int) (float32, bool) {
	if len(window) == 0 {
		return 0, false
	}
	var out [4]float32
	last := len(window) - 1
	best := float32(0)
	for j := 0; j <= last; j += 4 {
		vec.Dot4(q, keys.Row(window[j]), keys.Row(window[min(j+1, last)]),
			keys.Row(window[min(j+2, last)]), keys.Row(window[min(j+3, last)]), &out)
		for k, s := range out[:min(4, len(window)-j)] {
			if (j == 0 && k == 0) || s > best {
				best = s
			}
		}
	}
	return best, true
}
