// Package flat implements the flat index of §6.2: an exhaustive scan over
// all keys. It consumes no device memory, benefits from sequential access,
// and — unlike the coarse index — is exact. The optimizer routes layer-1
// DIPR queries here because the first layer's diffuse heads need so many
// tokens that graph traversal would be slower than a scan (Table 4).
//
// Scans score keys through vec.DotBatchRange, walking the key matrix's
// backing array in row blocks — or, with an SQ8 plane attached (MakeQuant),
// through the fused int8 kernels with a widened band and an fp32 rerank
// that restores the exact result. The DIPR and TopK paths have scratch
// forms (DIPRFilteredScratch, TopKScratch) whose score buffer, selection
// heap, and result slice live in a caller-owned Scratch reused across
// queries, making warm scans allocation-free. Query heads that share one
// key matrix take the group form instead: ScoreGroup scores all of them in
// one multi-query pass, then BandScratch selects each head's band.
package flat

import (
	"sync"

	"repro/internal/index"
	"repro/internal/vec"
)

// Index scans a key matrix. It holds a reference to the matrix (no copy);
// the matrix must not shrink while the index is in use. Appending rows is
// allowed — the scan reads the current length. The zero-cost way to obtain
// one per query is Make, which returns a value.
//
// With a quantized plane attached (MakeQuant), DIPR scans score rows
// through the SQ8 fused kernels and widen β by twice the scoring error
// bound, then rerank the surviving band in fp32 — so the returned
// candidates are exactly the fp32 scan's (the widened quantized band is a
// proven superset of the exact band over the snapped key plane).
type Index struct {
	keys  *vec.Matrix
	qkeys *vec.QuantMatrix // SQ8 scoring plane; nil = fp32 scans
	// workers bounds the DIPR scan's parallelism; 1 means serial. Top-k
	// scans are always serial.
	workers int
}

// New returns a flat index over keys whose DIPR scans split across workers
// chunk goroutines (workers <= 1 means serial).
func New(keys *vec.Matrix, workers int) *Index {
	x := Make(keys, workers)
	return &x
}

// Make is New returning a value instead of a heap pointer, so hot paths can
// construct a per-query index without allocating.
func Make(keys *vec.Matrix, workers int) Index {
	if workers < 1 {
		workers = 1
	}
	return Index{keys: keys, workers: workers}
}

// MakeQuant is Make with an SQ8 scoring plane. qkeys must shadow keys row
// for row (kvcache.QuantKeys computes exactly that); a nil qkeys degrades
// to fp32 scans. No serving path scans through it; it stays only while
// benchmark/probes.go times it (index.flat.scan_us).
func MakeQuant(keys *vec.Matrix, qkeys *vec.QuantMatrix, workers int) Index {
	x := Make(keys, workers)
	x.qkeys = qkeys
	return x
}

// Scratch holds the reusable working set of one scanning goroutine: the
// per-key score buffer, the selection heap, the sorted result slice, and —
// for quantized scans — the quantized query, the band id list, and the
// fp32 rerank buffer. Results returned by the *Scratch methods alias the
// arena and are valid only until its next use. Not safe for concurrent use.
type Scratch struct {
	scores []float32
	heap   index.MinHeap
	out    []index.Candidate
	qq     vec.QueryQ8
	ids    []int
	exact  []float32
	// Reranked is the number of band candidates the last quantized DIPR
	// scan reranked in fp32 (0 after an fp32 scan) — the observable cost of
	// absorbing quantization error.
	Reranked int
}

// Len returns the number of indexed vectors.
func (x Index) Len() int { return x.keys.Rows() }

// TopK returns the k highest-inner-product candidates, best first. The
// result is freshly backed (the scratch it computes through is local) and
// safe to retain; repeated queries should call TopKScratch with a reused
// arena instead.
func (x Index) TopK(q []float32, k int) []index.Candidate {
	var sc Scratch
	return x.TopKScratch(&sc, q, k)
}

// TopKScratch is TopK computing through sc's arena: the score buffer,
// selection heap, and sorted result slice are all reused across queries, so
// a warm scan is allocation-free. The scan is always serial, whatever the
// index's workers. The returned slice aliases sc and is valid until its
// next use.
func (x Index) TopKScratch(sc *Scratch, q []float32, k int) []index.Candidate {
	n := x.keys.Rows()
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	if cap(sc.scores) < n {
		sc.scores = make([]float32, n)
	}
	scores := sc.scores[:n]
	vec.DotBatchRange(q, x.keys, 0, n, scores)
	// Select through sc.heap in place: a local heap header would escape
	// through the non-inlined PushBounded and cost one allocation per
	// query.
	sc.heap = sc.heap[:0]
	for i, s := range scores {
		sc.heap.PushBounded(index.Candidate{ID: int32(i), Score: s}, k)
	}
	sc.out = sc.heap.SortedInto(sc.out) // drains the heap, capacity retained
	return sc.out
}

// DIPR returns all candidates whose inner product is within beta of the
// maximum inner product over the whole index — the exact result of the
// Dynamic Inner-Product Range query (Definition 3). The result is sorted
// best first. It also returns the maximum inner product found.
func (x Index) DIPR(q []float32, beta float32) ([]index.Candidate, float32) {
	return x.DIPRFiltered(q, beta, x.keys.Rows())
}

// DIPRFiltered is DIPR restricted to positions < limit (the attribute
// filtering predicate of §7.1: token id below the reused prefix length).
// Allocating form of DIPRFilteredScratch.
func (x Index) DIPRFiltered(q []float32, beta float32, limit int) ([]index.Candidate, float32) {
	var sc Scratch
	return x.DIPRFilteredScratch(&sc, q, beta, limit)
}

// DIPRFilteredScratch is DIPRFiltered computing through sc's arena: the
// returned candidate slice aliases sc and is valid until its next use.
//
// With a quantized plane attached, the scan runs on the SQ8 kernels: the
// band threshold is widened by twice the fused-scoring error bound (so no
// exact band member can be pruned by quantization error), the widened band
// is reranked with exact fp32 dots, and the exact β band of the reranked
// scores is returned — identical to the fp32 scan's result. sc.Reranked
// records the rerank volume.
func (x Index) DIPRFilteredScratch(sc *Scratch, q []float32, beta float32, limit int) ([]index.Candidate, float32) {
	n := x.keys.Rows()
	if limit < n {
		n = limit
	}
	if n <= 0 {
		return nil, 0
	}
	if cap(sc.scores) < n {
		sc.scores = make([]float32, n)
	}
	scores := sc.scores[:n]
	quant := x.qkeys != nil && x.qkeys.Rows() >= n
	if quant {
		sc.qq.Quantize(q)
	}
	best := x.scanBest(sc, q, quant, n, scores)
	sc.Reranked = 0
	if quant {
		return x.rerankBand(sc, q, beta, n, scores, best)
	}
	return x.selectBand(sc, beta, n, scores, best)
}

// ScoreGroup is the score pass of the group form of the fp32 DIPR scan,
// for query heads that share this index's keys: one multi-query pass
// (vec.DotBatchRangeMulti) over the first n = min(limit, Len()) keys sets
// scores[h][i] = qs[h]·key_i, and n is returned. Each key row is read once
// per four queries instead of once per query, and every score is bitwise
// the one DIPRFilteredScratch computes on the fp32 plane. It runs inline on
// the caller's goroutine: a group scan is already one task of a fan-out, so
// it spawns no chunk workers. Each scores[h] must hold at least n entries;
// an attached SQ8 plane is not used. BandScratch then selects each head's
// band.
func (x Index) ScoreGroup(qs [][]float32, limit int, scores [][]float32) int {
	n := min(x.keys.Rows(), limit)
	if n <= 0 {
		return 0
	}
	vec.DotBatchRangeMulti(qs, x.keys, 0, n, scores)
	return n
}

// BandScratch is the band selection of the group form: the DIPR result of
// one head whose score row ScoreGroup filled, through sc's arena —
// identical to what DIPRFilteredScratch returns for that query on the fp32
// plane. The returned slice aliases sc and is valid until its next use.
func (x Index) BandScratch(sc *Scratch, scores []float32, beta float32) ([]index.Candidate, float32) {
	if len(scores) == 0 {
		return nil, 0
	}
	sc.Reranked = 0
	return x.selectBand(sc, beta, len(scores), scores, maxScore(scores))
}

// maxScore returns the largest of a non-empty score row, keeping the first
// of equal maxima.
func maxScore(scores []float32) float32 {
	best := scores[0]
	for _, s := range scores[1:] {
		if s > best {
			best = s
		}
	}
	return best
}

// selectBand is the serial fp32 band selection over a filled score buffer:
// keep everything within beta of best, sorted best-first. Shared by the
// serial, chunk-parallel and group scans so the selection semantics (and
// bitwise results) cannot drift between them.
func (x Index) selectBand(sc *Scratch, beta float32, n int, scores []float32, best float32) ([]index.Candidate, float32) {
	threshold := best - beta
	h := sc.heap[:0]
	for i := 0; i < n; i++ {
		if scores[i] >= threshold {
			h.PushValue(index.Candidate{ID: int32(i), Score: scores[i]})
		}
	}
	sc.heap = h[:0] // retain grown capacity for the next query
	sc.out = h.SortedInto(sc.out)
	return sc.out, best
}

// scanBest fills scores[0:n] — fused SQ8 scores when quant is set, exact
// fp32 dots otherwise — and returns the maximum.
func (x Index) scanBest(sc *Scratch, q []float32, quant bool, n int, scores []float32) float32 {
	if x.workers == 1 || n < 4096 {
		// Serial path: no closures, so a warm scratch scan is
		// allocation-free.
		if quant {
			vec.DotBatchQ8Range(&sc.qq, x.qkeys, 0, n, scores)
		} else {
			vec.DotBatchRange(q, x.keys, 0, n, scores)
		}
		return maxScore(scores)
	}
	scan := func(lo, hi int) float32 {
		if quant {
			vec.DotBatchQ8Range(&sc.qq, x.qkeys, lo, hi, scores[lo:hi])
		} else {
			vec.DotBatchRange(q, x.keys, lo, hi, scores[lo:hi])
		}
		return maxScore(scores[lo:hi])
	}
	bests := make([]float32, x.workers)
	var wg sync.WaitGroup
	chunk := (n + x.workers - 1) / x.workers
	for w := 0; w < x.workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			bests[w] = scores[0] // placeholder, overwritten below if empty
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			bests[w] = scan(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	best := bests[0]
	for _, b := range bests[1:] {
		if b > best {
			best = b
		}
	}
	return best
}

// rerankBand turns a quantized score sweep into the exact fp32 DIPR band:
// collect ids within the widened threshold, rescore them with exact dots,
// and keep the exact band of the reranked maximum.
func (x Index) rerankBand(sc *Scratch, q []float32, beta float32, n int, scores []float32, bestQ float32) ([]index.Candidate, float32) {
	eps := x.qkeys.DotErrBound(&sc.qq)
	widened := bestQ - beta - 2*eps
	ids := sc.ids[:0]
	for i := 0; i < n; i++ {
		if scores[i] >= widened {
			ids = append(ids, i)
		}
	}
	sc.ids = ids
	if len(ids) == 0 {
		// Only reachable with a degenerate β (NaN, or negative beyond 2ε):
		// for any β ≥ 0 the quantized argmax satisfies the widened
		// threshold. Mirror the fp32 path's empty band instead of indexing
		// into nothing.
		sc.Reranked = 0
		return nil, bestQ
	}
	if cap(sc.exact) < len(ids) {
		sc.exact = make([]float32, len(ids))
	}
	exact := sc.exact[:len(ids)]
	vec.DotGather(q, x.keys, ids, exact)
	best := maxScore(exact) // the band always holds the quantized argmax
	threshold := best - beta
	h := sc.heap[:0]
	for j, i := range ids {
		if exact[j] >= threshold {
			h.PushValue(index.Candidate{ID: int32(i), Score: exact[j]})
		}
	}
	sc.heap = h[:0]
	sc.out = h.SortedInto(sc.out)
	sc.Reranked = len(ids)
	return sc.out, best
}
