package flat

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/index"
	"repro/internal/vec"
)

func randomKeys(rng *rand.Rand, n, d int) *vec.Matrix {
	m := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			m.Row(i)[j] = rng.Float32()*2 - 1
		}
	}
	return m
}

// naiveTopK is the reference implementation.
func naiveTopK(q []float32, keys *vec.Matrix, k int) []index.Candidate {
	n := keys.Rows()
	all := make([]index.Candidate, n)
	for i := 0; i < n; i++ {
		all[i] = index.Candidate{ID: int32(i), Score: vec.Dot(q, keys.Row(i))}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Score > all[j].Score })
	if k > n {
		k = n
	}
	return all[:k]
}

func TestTopKMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, workers := range []int{1, 4} {
		for _, n := range []int{1, 7, 100, 5000} {
			keys := randomKeys(rng, n, 16)
			x := New(keys, workers)
			q := make([]float32, 16)
			for j := range q {
				q[j] = rng.Float32()*2 - 1
			}
			for _, k := range []int{1, 5, n} {
				got := x.TopK(q, k)
				want := naiveTopK(q, keys, k)
				if len(got) != len(want) {
					t.Fatalf("workers=%d n=%d k=%d: got %d candidates, want %d", workers, n, k, len(got), len(want))
				}
				for i := range got {
					if got[i].Score != want[i].Score {
						t.Fatalf("workers=%d n=%d k=%d: rank %d score %v != %v",
							workers, n, k, i, got[i].Score, want[i].Score)
					}
				}
			}
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	keys := randomKeys(rng, 10, 8)
	x := New(keys, 1)
	q := make([]float32, 8)
	if got := x.TopK(q, 0); got != nil {
		t.Errorf("TopK(0) = %v", got)
	}
	if got := x.TopK(q, 100); len(got) != 10 {
		t.Errorf("TopK(k>n) returned %d", len(got))
	}
	if x.Len() != 10 {
		t.Errorf("Len = %d", x.Len())
	}
}

func TestDIPRExactness(t *testing.T) {
	// Property: DIPR returns exactly the candidates within beta of the max.
	rng := rand.New(rand.NewSource(3))
	keys := randomKeys(rng, 500, 8)
	for _, workers := range []int{1, 4} {
		x := New(keys, workers)
		f := func(qi [8]int8, betaRaw uint8) bool {
			q := make([]float32, 8)
			for j := range q {
				q[j] = float32(qi[j]) / 16
			}
			beta := float32(betaRaw) / 64
			got, best := x.DIPR(q, beta)
			// Reference: compute all scores.
			inSet := make(map[int32]bool, len(got))
			prev := float32(1e30)
			for _, c := range got {
				if c.Score > prev {
					return false // not sorted best-first
				}
				prev = c.Score
				inSet[c.ID] = true
			}
			trueBest := vec.Dot(q, keys.Row(0))
			for i := 1; i < 500; i++ {
				if s := vec.Dot(q, keys.Row(i)); s > trueBest {
					trueBest = s
				}
			}
			if trueBest != best {
				return false
			}
			for i := 0; i < 500; i++ {
				s := vec.Dot(q, keys.Row(i))
				if (s >= best-beta) != inSet[int32(i)] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
}

func TestDIPRBetaZeroReturnsMaxOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	keys := randomKeys(rng, 200, 8)
	x := New(keys, 1)
	q := make([]float32, 8)
	for j := range q {
		q[j] = rng.Float32()
	}
	got, best := x.DIPR(q, 0)
	if len(got) < 1 {
		t.Fatal("DIPR(0) returned nothing")
	}
	if got[0].Score != best {
		t.Errorf("top score %v != best %v", got[0].Score, best)
	}
	for _, c := range got {
		if c.Score != best {
			t.Errorf("beta=0 returned non-max candidate score %v (best %v)", c.Score, best)
		}
	}
}

func TestDIPRFiltered(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keys := randomKeys(rng, 300, 8)
	x := New(keys, 1)
	q := make([]float32, 8)
	for j := range q {
		q[j] = rng.Float32()*2 - 1
	}
	limit := 120
	got, best := x.DIPRFiltered(q, 0.5, limit)
	for _, c := range got {
		if int(c.ID) >= limit {
			t.Fatalf("filtered DIPR returned id %d >= limit %d", c.ID, limit)
		}
	}
	// best must be the max within the limit only.
	trueBest := vec.Dot(q, keys.Row(0))
	for i := 1; i < limit; i++ {
		if s := vec.Dot(q, keys.Row(i)); s > trueBest {
			trueBest = s
		}
	}
	if best != trueBest {
		t.Errorf("filtered best = %v, want %v", best, trueBest)
	}
}

func TestDIPREmptyIndex(t *testing.T) {
	x := New(vec.NewMatrix(0, 4), 1)
	got, _ := x.DIPR([]float32{1, 2, 3, 4}, 1)
	if got != nil {
		t.Errorf("DIPR on empty = %v", got)
	}
}

func TestParallelDIPRMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	keys := randomKeys(rng, 9000, 16) // above the parallel threshold
	serial := New(keys, 1)
	parallel := New(keys, 4)
	q := make([]float32, 16)
	for j := range q {
		q[j] = rng.Float32()*2 - 1
	}
	a, bestA := serial.DIPR(q, 1.5)
	b, bestB := parallel.DIPR(q, 1.5)
	if bestA != bestB {
		t.Fatalf("best differs: %v vs %v", bestA, bestB)
	}
	if len(a) != len(b) {
		t.Fatalf("result sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("rank %d differs: %d vs %d", i, a[i].ID, b[i].ID)
		}
	}
}

func TestIndexSeesAppendedRows(t *testing.T) {
	keys := vec.NewMatrix(0, 4)
	keys.Append([]float32{1, 0, 0, 0})
	x := New(keys, 1)
	if x.Len() != 1 {
		t.Fatalf("Len = %d", x.Len())
	}
	keys.Append([]float32{0, 1, 0, 0})
	if x.Len() != 2 {
		t.Errorf("Len after append = %d, want 2", x.Len())
	}
	got := x.TopK([]float32{0, 1, 0, 0}, 1)
	if got[0].ID != 1 {
		t.Errorf("TopK missed appended row: %v", got)
	}
}

// TestDIPRScratchMatchesAllocating pins that the scratch scan returns the
// exact candidates of the allocating form, including across reuse of a
// dirty arena.
func TestDIPRScratchMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := randomKeys(rng, 2000, 16)
	x := Make(keys, 1)
	var sc Scratch
	for trial := 0; trial < 5; trial++ {
		q := make([]float32, 16)
		for j := range q {
			q[j] = rng.Float32()*2 - 1
		}
		limit := 500 + trial*300
		want, wantBest := x.DIPRFiltered(q, 1.2, limit)
		got, gotBest := x.DIPRFilteredScratch(&sc, q, 1.2, limit)
		if gotBest != wantBest {
			t.Fatalf("trial %d: best %v vs %v", trial, gotBest, wantBest)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d vs %d candidates", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d rank %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestDIPRScratchZeroAllocWarm guards the allocation-free warm scan.
func TestDIPRScratchZeroAllocWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	keys := randomKeys(rng, 2048, 16)
	x := Make(keys, 1)
	q := make([]float32, 16)
	for j := range q {
		q[j] = rng.Float32()*2 - 1
	}
	var sc Scratch
	x.DIPRFilteredScratch(&sc, q, 2, 2048) // warm the arena
	allocs := testing.AllocsPerRun(20, func() {
		x.DIPRFilteredScratch(&sc, q, 2, 2048)
	})
	if allocs != 0 {
		t.Fatalf("warm scratch DIPR allocated %.1f times per run, want 0", allocs)
	}
}

// snapKeys quantizes keys in place (snapping fp32 rows to the dequantized
// plane, as kvcache.EnableQuantKeys does) and returns the shadow.
func snapKeys(keys *vec.Matrix) *vec.QuantMatrix {
	qm := vec.QuantizeMatrix(keys)
	for i := 0; i < keys.Rows(); i++ {
		qm.DequantizeRow(i, keys.Row(i))
	}
	return qm
}

// TestQuantDIPRMatchesFP32 is the flat-index half of the recall-parity
// guarantee: over a snapped key plane, the quantized scan with widened β
// plus fp32 rerank returns candidates identical to the fp32 scan — ids,
// scores, order, and best.
func TestQuantDIPRMatchesFP32(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, workers := range []int{1, 4} {
		for _, n := range []int{1, 50, 700, 5000} {
			keys := randomKeys(rng, n, 16)
			qm := snapKeys(keys)
			fp := Make(keys, workers)
			qx := MakeQuant(keys, qm, workers)
			var fsc, qsc Scratch
			for trial := 0; trial < 4; trial++ {
				q := make([]float32, 16)
				for j := range q {
					q[j] = rng.Float32()*2 - 1
				}
				beta := float32(trial) * 0.4
				want, wantBest := fp.DIPRFilteredScratch(&fsc, q, beta, n)
				got, gotBest := qx.DIPRFilteredScratch(&qsc, q, beta, n)
				if gotBest != wantBest {
					t.Fatalf("workers=%d n=%d trial %d: best %v vs %v", workers, n, trial, gotBest, wantBest)
				}
				if len(got) != len(want) {
					t.Fatalf("workers=%d n=%d trial %d: %d vs %d candidates", workers, n, trial, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d n=%d trial %d rank %d: %v vs %v", workers, n, trial, i, got[i], want[i])
					}
				}
				if qsc.Reranked < len(want) {
					t.Fatalf("reranked %d < band size %d: widened band cannot be smaller than the exact band",
						qsc.Reranked, len(want))
				}
				if fsc.Reranked != 0 {
					t.Fatalf("fp32 scan reported %d reranked rows", fsc.Reranked)
				}
			}
		}
	}
}

// TestQuantDIPRScratchZeroAllocWarm extends the zero-alloc guard to the
// quantized scan + rerank path.
func TestQuantDIPRScratchZeroAllocWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	keys := randomKeys(rng, 2048, 16)
	qm := snapKeys(keys)
	x := MakeQuant(keys, qm, 1)
	q := make([]float32, 16)
	for j := range q {
		q[j] = rng.Float32()*2 - 1
	}
	var sc Scratch
	x.DIPRFilteredScratch(&sc, q, 2, 2048) // warm the arena
	allocs := testing.AllocsPerRun(20, func() {
		x.DIPRFilteredScratch(&sc, q, 2, 2048)
	})
	if allocs != 0 {
		t.Fatalf("warm quantized DIPR allocated %.1f times per run, want 0", allocs)
	}
}

// TestTopKScratchMatchesAndZeroAlloc is the satellite guard: the scratch
// top-k scan matches the allocating form and a warm serial scan allocates
// nothing.
func TestTopKScratchMatchesAndZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keys := randomKeys(rng, 3000, 16)
	x := Make(keys, 1)
	q := make([]float32, 16)
	for j := range q {
		q[j] = rng.Float32()*2 - 1
	}
	var sc Scratch
	for _, k := range []int{1, 17, 64} {
		want := naiveTopK(q, keys, k)
		got := x.TopKScratch(&sc, q, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d vs %d candidates", k, len(got), len(want))
		}
		for i := range want {
			if got[i].Score != want[i].Score {
				t.Fatalf("k=%d rank %d: %v vs %v", k, i, got[i], want[i])
			}
		}
	}
	x.TopKScratch(&sc, q, 64) // warm
	allocs := testing.AllocsPerRun(20, func() {
		x.TopKScratch(&sc, q, 64)
	})
	if allocs != 0 {
		t.Fatalf("warm TopKScratch allocated %.1f times per run, want 0", allocs)
	}
}

// TestQuantDIPRDegenerateBetaNoPanic pins the empty-widened-band guard: a
// degenerate β reachable only through the public API (NaN, or negative
// beyond the widening) returns an empty band like the fp32 path instead of
// panicking in the rerank.
func TestQuantDIPRDegenerateBetaNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	keys := randomKeys(rng, 100, 8)
	qm := snapKeys(keys)
	x := MakeQuant(keys, qm, 1)
	q := make([]float32, 8)
	for j := range q {
		q[j] = rng.Float32()*2 - 1
	}
	var sc Scratch
	nan := float32(math.NaN())
	if got, _ := x.DIPRFilteredScratch(&sc, q, nan, 100); len(got) != 0 {
		t.Fatalf("NaN beta returned %d candidates", len(got))
	}
	if got, _ := x.DIPRFilteredScratch(&sc, q, -1e6, 100); len(got) != 0 {
		t.Fatalf("large negative beta returned %d candidates", len(got))
	}
}

// TestGroupDIPRMatchesPerHead pins the group form against the per-head
// scan: ScoreGroup then BandScratch per head returns exactly the
// candidates, scores, order and best DIPRFilteredScratch returns for each
// query — serial and chunk-parallel, filtered and not, on every group size
// DotBatchRangeMulti pads differently.
func TestGroupDIPRMatchesPerHead(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, workers := range []int{1, 4} {
		for _, n := range []int{1, 50, 701, 5000} {
			keys := randomKeys(rng, n, 16)
			x := Make(keys, workers)
			for _, g := range []int{1, 2, 3, 4, 5, 8} {
				qs := make([][]float32, g)
				scores := make([][]float32, g)
				for h := range qs {
					qs[h] = make([]float32, 16)
					for j := range qs[h] {
						qs[h][j] = rng.Float32()*2 - 1
					}
					scores[h] = make([]float32, n)
				}
				for _, limit := range []int{n, n/2 + 1} {
					beta := float32(g) * 0.3
					if got := x.ScoreGroup(qs, limit, scores); got != limit {
						t.Fatalf("ScoreGroup scored %d rows, want %d", got, limit)
					}
					var want, group Scratch
					for h, q := range qs {
						wantC, wantBest := x.DIPRFilteredScratch(&want, q, beta, limit)
						gotC, gotBest := x.BandScratch(&group, scores[h][:limit], beta)
						if gotBest != wantBest || len(gotC) != len(wantC) {
							t.Fatalf("workers=%d n=%d g=%d limit=%d head %d: best %v/%d vs %v/%d",
								workers, n, g, limit, h, gotBest, len(gotC), wantBest, len(wantC))
						}
						for i := range wantC {
							if gotC[i] != wantC[i] {
								t.Fatalf("workers=%d n=%d g=%d head %d rank %d: %v vs %v", workers, n, g, h, i, gotC[i], wantC[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestGroupDIPRZeroAlloc: the group form allocates nothing once its score
// rows and arena are warm, even with workers > 1 over a scan large enough
// that the per-head form would fan out chunk goroutines.
func TestGroupDIPRZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	keys := randomKeys(rng, 5000, 16)
	x := Make(keys, 4)
	qs := make([][]float32, 4)
	scores := make([][]float32, 4)
	for h := range qs {
		qs[h] = make([]float32, 16)
		for j := range qs[h] {
			qs[h][j] = rng.Float32()*2 - 1
		}
		scores[h] = make([]float32, 5000)
	}
	var sc Scratch
	scan := func() {
		n := x.ScoreGroup(qs, 5000, scores)
		for h := range qs {
			x.BandScratch(&sc, scores[h][:n], 0.5)
		}
	}
	scan()
	if allocs := testing.AllocsPerRun(10, scan); allocs != 0 {
		t.Fatalf("warm group DIPR allocated %.1f times per run, want 0", allocs)
	}
}
