// Package graph implements the fine-grained graph index of §6.2: a
// RoarGraph-like [28] proximity graph built as a *projected bipartite
// graph*. Long-context sparse attention is an out-of-distribution search
// problem — decode-time queries are not distributed like the keys — so the
// graph is built from (sampled) historical query vectors: each query's
// exact nearest keys are linked to each other (projection), then a
// connectivity-enhancement pass links every key into the searchable
// component. Search is best-first beam search by inner product.
//
// The same structure also exposes the raw adjacency needed by the DIPRS
// traversal in internal/query.
package graph

import (
	"fmt"
	"sync"

	"repro/internal/index"
	"repro/internal/index/knn"
	"repro/internal/vec"
)

// Config tunes graph construction.
type Config struct {
	// Degree is the maximum out-degree M of a node (default 24).
	Degree int
	// QueryKNN is κ, the number of exact key neighbours computed per
	// training query in the bipartite stage (default 16).
	QueryKNN int
	// EfConstruction is the beam width used during the connectivity
	// enhancement pass (default 64).
	EfConstruction int
	// Workers bounds build parallelism (default 1).
	Workers int
	// DisableBridges turns off the pruning exemption for bipartite bridge
	// edges. Exists only for the ablation measuring what the bridges buy
	// (out-of-distribution targets become unreachable without them).
	DisableBridges bool
}

func (c *Config) defaults() {
	if c.Degree <= 0 {
		c.Degree = 24
	}
	if c.QueryKNN <= 0 {
		c.QueryKNN = 16
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = 64
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
}

// Graph is an immutable proximity graph over a key matrix. It references
// the matrix without copying it. Safe for concurrent search.
//
// An SQ8 plane may be attached after construction (AttachQuantKeys); the
// graph structure itself never changes, but DIPRS traversals in
// internal/query then score visited nodes through the fused int8 kernels
// and rerank in fp32 (see query.QuantGraph).
type Graph struct {
	keys  *vec.Matrix
	qkeys *vec.QuantMatrix // optional SQ8 scoring plane
	adj   [][]int32
	prot  [][]int32 // bipartite bridge edges, exempt from pruning (build only)
	entry int32
	cfg   Config
}

// maxProtected bounds the pruning-exempt bridge edges per node.
const maxProtected = 4

// Build constructs the graph for keys. If queries is non-nil and non-empty,
// the RoarGraph bipartite construction is used: stage (i) links each query
// to its exact nearest keys (the kNN step the paper offloads to cuVS),
// stage (ii) projects those lists into key–key edges and enhances
// connectivity. With no queries, a plain incremental insertion build
// produces an NSW-style graph (used when no query history exists yet).
func Build(keys, queries *vec.Matrix, cfg Config) *Graph {
	cfg.defaults()
	n := keys.Rows()
	g := &Graph{keys: keys, adj: make([][]int32, n), cfg: cfg}
	if n == 0 {
		return g
	}
	g.entry = maxNormRow(keys)
	if queries != nil && queries.Rows() > 0 {
		g.buildBipartite(queries)
	} else {
		g.buildIncremental()
	}
	g.enhanceConnectivity()
	g.mergeProtected()
	return g
}

// FromAdjacency reconstructs a graph from a persisted adjacency structure
// (see internal/core's SaveContext/LoadContext). The adjacency is trusted
// as built; no pruning or enhancement runs.
func FromAdjacency(keys *vec.Matrix, adj [][]int32, entry int32, cfg Config) *Graph {
	cfg.defaults()
	if len(adj) != keys.Rows() {
		panic(fmt.Sprintf("graph: adjacency has %d nodes for %d keys", len(adj), keys.Rows()))
	}
	if len(adj) > 0 && (entry < 0 || int(entry) >= len(adj)) {
		panic(fmt.Sprintf("graph: entry %d out of range", entry))
	}
	return &Graph{keys: keys, adj: adj, entry: entry, cfg: cfg}
}

// mergeProtected folds the pruning-exempt bridge edges into the final
// adjacency (deduplicated) and drops the side structure.
func (g *Graph) mergeProtected() {
	if g.prot == nil {
		return
	}
	for u := range g.prot {
		for _, v := range g.prot[u] {
			g.addEdge(int32(u), v)
		}
	}
	g.prot = nil
}

// maxNormRow picks the row with the largest Euclidean norm — a standard
// entry point for inner-product graph search (it upper-bounds many scores).
func maxNormRow(m *vec.Matrix) int32 {
	best, at := float32(-1), int32(0)
	for i := 0; i < m.Rows(); i++ {
		if n := vec.Norm2(m.Row(i)); n > best {
			best, at = n, int32(i)
		}
	}
	return at
}

// buildBipartite is the RoarGraph path.
func (g *Graph) buildBipartite(queries *vec.Matrix) {
	nbrs := knn.Exact(queries, g.keys, g.cfg.QueryKNN, g.cfg.Workers)
	g.prot = make([][]int32, len(g.adj))
	// Projection: within each query's neighbour list, link the pivot (best
	// key) to the rest and chain successive keys, seeding edges between keys
	// that co-occur as answers to the same query. The runner-up → pivot
	// edges are the *bridges* that make out-of-distribution targets
	// reachable: a decode query's best key may be nowhere near the keys'
	// own similarity structure, so these edges must survive pruning.
	for _, list := range nbrs {
		if len(list) == 0 {
			continue
		}
		pivot := list[0].ID
		for j := 1; j < len(list); j++ {
			if g.cfg.DisableBridges {
				g.addEdge(list[j].ID, pivot)
			} else {
				g.addProtected(list[j].ID, pivot)
			}
			g.addEdge(pivot, list[j].ID)
			if j+1 < len(list) {
				g.addEdge(list[j].ID, list[j+1].ID)
			}
		}
	}
	g.pruneAll()
}

// addProtected records a pruning-exempt bridge edge u→v (bounded per node).
func (g *Graph) addProtected(u, v int32) {
	if u == v || len(g.prot[u]) >= maxProtected {
		return
	}
	for _, w := range g.prot[u] {
		if w == v {
			return
		}
	}
	g.prot[u] = append(g.prot[u], v)
}

// buildIncremental inserts keys one at a time, linking each to its nearest
// already-inserted keys via graph search (NSW-style flat build). One search
// state and one prune scratch serve the whole sweep — insertion cost is
// dominated by scoring, not allocation.
func (g *Graph) buildIncremental() {
	n := g.keys.Rows()
	if n == 0 {
		return
	}
	var st SearchState
	var ps pruneScratch
	// Insert in index order; search the partial graph for neighbours.
	for i := 1; i < n; i++ {
		q := g.keys.Row(i)
		cands := g.searchInternal(&st, q, g.cfg.Degree, g.cfg.EfConstruction, int32(i))
		for _, c := range cands {
			g.addEdge(int32(i), c.ID)
			g.addEdge(c.ID, int32(i))
			if len(g.adj[c.ID]) > 2*g.cfg.Degree {
				g.pruneWith(&ps, c.ID)
			}
		}
	}
	g.pruneAll()
}

// enhanceConnectivity guarantees every node is reachable from the entry
// point: nodes not reached by a BFS are linked to their nearest reachable
// neighbours found by search (RoarGraph stage (ii)).
func (g *Graph) enhanceConnectivity() {
	n := len(g.adj)
	var st SearchState
	for pass := 0; pass < 3; pass++ {
		reach := g.reachable()
		fixed := 0
		for i := 0; i < n; i++ {
			if reach[i] {
				continue
			}
			cands := g.searchInternal(&st, g.keys.Row(i), 4, g.cfg.EfConstruction, -1)
			for _, c := range cands {
				if c.ID == int32(i) {
					continue
				}
				g.addEdge(c.ID, int32(i))
				g.addEdge(int32(i), c.ID)
				fixed++
			}
			if len(g.adj[i]) == 0 {
				// Isolated even after search (e.g. all-zero vectors): chain
				// to the entry point.
				g.addEdge(g.entry, int32(i))
				g.addEdge(int32(i), g.entry)
			}
		}
		if fixed == 0 {
			break
		}
	}
	g.pruneAll()
	// Pruning can re-orphan nodes; a final pass links any stragglers
	// directly without pruning again.
	reach := g.reachable()
	for i := 0; i < n; i++ {
		if !reach[i] {
			g.adj[g.entry] = append(g.adj[g.entry], int32(i))
			g.adj[i] = append(g.adj[i], g.entry)
		}
	}
}

// reachable returns the BFS reachability set from the entry point.
func (g *Graph) reachable() []bool {
	n := len(g.adj)
	seen := make([]bool, n)
	if n == 0 {
		return seen
	}
	queue := []int32{g.entry}
	seen[g.entry] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return seen
}

// addEdge appends v to u's adjacency if absent.
func (g *Graph) addEdge(u, v int32) {
	if u == v {
		return
	}
	for _, w := range g.adj[u] {
		if w == v {
			return
		}
	}
	g.adj[u] = append(g.adj[u], v)
}

// pruneScratch is the reusable working set of a pruning sweep: the scored
// candidate list, the selected-neighbour buffer, and the membership bitset
// the backfill pass uses (an epoch-cleared VisitSet, replacing the
// per-prune map[int32]bool allocation).
type pruneScratch struct {
	cands    []index.Candidate
	selected []int32
	have     index.VisitSet
}

// pruneWith trims node u's adjacency to Degree using a diversity heuristic:
// neighbours are admitted best-first (by inner product with u), and a
// candidate dominated by an already-selected neighbour — closer to that
// neighbour than to u in L2 — is skipped. This is the occlusion rule used
// by HNSW/Vamana, and keeps edges spread across directions. Protected
// bridge edges are merged back in afterwards, over and above Degree. The
// surviving neighbour list is written back into adj[u]'s existing storage.
func (g *Graph) pruneWith(ps *pruneScratch, u int32) {
	adj := g.adj[u]
	if len(adj) <= g.cfg.Degree {
		return
	}
	uRow := g.keys.Row(int(u))
	cands := ps.cands[:0]
	for _, v := range adj {
		cands = append(cands, index.Candidate{ID: v})
	}
	index.Score(uRow, g.Vector, cands)
	ps.cands = cands
	sortCandidates(cands)
	selected := ps.selected[:0]
	for _, c := range cands {
		if len(selected) >= g.cfg.Degree {
			break
		}
		cRow := g.keys.Row(int(c.ID))
		distToU := vec.L2Distance(uRow, cRow)
		dominated := false
		for _, s := range selected {
			if vec.L2Distance(g.keys.Row(int(s)), cRow) < distToU {
				dominated = true
				break
			}
		}
		if !dominated {
			selected = append(selected, c.ID)
		}
	}
	// Backfill with best-scoring skipped candidates if diversity left slots.
	if len(selected) < g.cfg.Degree {
		ps.have.Reset(len(g.adj))
		for _, s := range selected {
			ps.have.Add(int(s))
		}
		for _, c := range cands {
			if len(selected) >= g.cfg.Degree {
				break
			}
			if !ps.have.Visited(int(c.ID)) {
				selected = append(selected, c.ID)
				ps.have.Add(int(c.ID))
			}
		}
	}
	ps.selected = selected
	// Pruning only shrinks, so the surviving list fits in adj[u]'s storage.
	g.adj[u] = append(g.adj[u][:0], selected...)
}

func (g *Graph) pruneAll() {
	var wg sync.WaitGroup
	n := len(g.adj)
	chunk := (n + g.cfg.Workers - 1) / g.cfg.Workers
	for w := 0; w < g.cfg.Workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var ps pruneScratch // one scratch per worker, reused across its range
			for i := lo; i < hi; i++ {
				g.pruneWith(&ps, int32(i))
			}
		}(lo, hi)
	}
	wg.Wait()
}

func sortCandidates(cs []index.Candidate) {
	// Insertion sort: candidate lists are short (≤ a few × Degree).
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].Score > cs[j-1].Score; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// Len returns the number of indexed vectors.
func (g *Graph) Len() int { return len(g.adj) }

// Entry returns the search entry point.
func (g *Graph) Entry() int32 { return g.entry }

// Neighbors returns node i's out-neighbours. Callers must not mutate the
// returned slice.
func (g *Graph) Neighbors(i int32) []int32 { return g.adj[i] }

// Vector returns the key vector of node i (aliasing index storage).
func (g *Graph) Vector(i int32) []float32 { return g.keys.Row(int(i)) }

// Keys returns the underlying key matrix.
func (g *Graph) Keys() *vec.Matrix { return g.keys }

// AttachQuantKeys attaches an SQ8 scoring plane. qm must shadow the key
// matrix row for row (kvcache's quantized plane provides exactly that);
// attaching nil detaches. Build and beam search are unaffected — only the
// DIPRS traversal in internal/query consults the plane.
func (g *Graph) AttachQuantKeys(qm *vec.QuantMatrix) {
	if qm != nil && qm.Rows() != g.keys.Rows() {
		panic(fmt.Sprintf("graph: quant plane has %d rows for %d keys", qm.Rows(), g.keys.Rows()))
	}
	g.qkeys = qm
}

// QuantKeys returns the attached SQ8 plane, or nil. It satisfies
// query.QuantGraph.
func (g *Graph) QuantKeys() *vec.QuantMatrix { return g.qkeys }

// Degree returns the configured maximum out-degree.
func (g *Graph) Degree() int { return g.cfg.Degree }

// Bytes returns the memory footprint of the adjacency structure (the index
// itself, excluding the vectors it points at).
func (g *Graph) Bytes() int64 {
	var n int64
	for _, a := range g.adj {
		n += int64(len(a)) * 4
	}
	return n + int64(len(g.adj))*24 // slice headers
}

// SearchState is the reusable working set of one search goroutine: the
// visited set (cleared by epoch counter, not reallocation), the frontier
// and result heaps, the expanded node's unvisited neighbours awaiting
// scoring, and the sorted output buffer. Results returned through a state
// alias it and are valid until its next use. The zero value is ready; a
// state serves one goroutine at a time.
type SearchState struct {
	visited  index.VisitSet
	frontier index.MaxHeap
	results  index.MinHeap
	pending  []index.Candidate
	out      []index.Candidate
}

// TopK implements index.Searcher via beam search with ef = max(2k, 64).
func (g *Graph) TopK(q []float32, k int) []index.Candidate {
	ef := 2 * k
	if ef < 64 {
		ef = 64
	}
	res := g.SearchEf(q, k, ef)
	return res
}

// SearchEf performs best-first beam search with beam width ef and returns
// the best k results found.
func (g *Graph) SearchEf(q []float32, k, ef int) []index.Candidate {
	var st SearchState
	return g.searchInternal(&st, q, k, ef, -1)
}

// searchInternal is the beam search core. limit >= 0 restricts the search
// to nodes with id < limit (used by the incremental build, where nodes >=
// limit are not yet inserted).
func (g *Graph) searchInternal(st *SearchState, q []float32, k, ef int, limit int32) []index.Candidate {
	n := len(g.adj)
	if n == 0 || k <= 0 {
		return nil
	}
	if ef < k {
		ef = k
	}
	start := g.entry
	if limit >= 0 && start >= limit {
		start = 0 // node 0 is always inserted first in incremental builds
		if limit == 0 {
			return nil
		}
	}
	st.visited.Reset(n)
	st.visited.Add(int(start))
	startScore := vec.Dot(q, g.keys.Row(int(start)))

	frontier := append(st.frontier[:0], index.Candidate{ID: start, Score: startScore})
	results := append(st.results[:0], index.Candidate{ID: start, Score: startScore})

	pending := st.pending[:0]
	for frontier.Len() > 0 {
		cur := frontier.PopValue()
		if results.Len() >= ef && cur.Score < results[0].Score {
			break
		}
		// Which neighbours get scored does not depend on any score, so they
		// are collected first, scored four at a time, and then offered to
		// the beam in adjacency order — the same decisions as scoring each
		// in turn.
		pending = pending[:0]
		for _, v := range g.adj[cur.ID] {
			if limit >= 0 && v >= limit {
				continue
			}
			if st.visited.Visit(int(v)) {
				pending = append(pending, index.Candidate{ID: v})
			}
		}
		index.Score(q, g.Vector, pending)
		for _, c := range pending {
			if results.Len() < ef || c.Score > results[0].Score {
				frontier.PushValue(c)
				results.PushBounded(c, ef)
			}
		}
	}
	st.frontier, st.results, st.pending = frontier[:0], results[:0], pending[:0]
	st.out = results.SortedInto(st.out)
	sorted := st.out
	if len(sorted) > k {
		sorted = sorted[:k]
	}
	return sorted
}

// Validate checks structural invariants: in-range neighbour ids, no
// self-loops, degree bound respected (after build), entry reachability of
// every node. Intended for tests and the alayactl doctor command.
func (g *Graph) Validate() error {
	n := len(g.adj)
	for i, adj := range g.adj {
		for _, v := range adj {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("graph: node %d has out-of-range neighbour %d", i, v)
			}
			if int(v) == i {
				return fmt.Errorf("graph: node %d has a self-loop", i)
			}
		}
	}
	reach := g.reachable()
	for i, ok := range reach {
		if !ok {
			return fmt.Errorf("graph: node %d unreachable from entry %d", i, g.entry)
		}
	}
	return nil
}
