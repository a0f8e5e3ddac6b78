package query

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/index/flat"
	"repro/internal/index/graph"
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

func buildGraph(rng *rand.Rand, keys *vec.Matrix) *graph.Graph {
	return graph.Build(keys, nil, graph.Config{Degree: 16, EfConstruction: 96, Workers: 2})
}

func TestBetaAlphaRoundTrip(t *testing.T) {
	for _, alpha := range []float64{0.01, 0.1, 0.5, 1} {
		beta := Beta(alpha, 64)
		if beta < 0 {
			t.Errorf("Beta(%v) = %v < 0", alpha, beta)
		}
		if got := Alpha(beta, 64); math.Abs(got-alpha) > 1e-5 {
			t.Errorf("Alpha(Beta(%v)) = %v", alpha, got)
		}
	}
	if Beta(1, 64) != 0 {
		t.Errorf("Beta(1) = %v, want 0", Beta(1, 64))
	}
}

func TestDIPRSEmptyGraph(t *testing.T) {
	g := graph.Build(vec.NewMatrix(0, 4), nil, graph.Config{})
	res := DIPRS(g, []float32{1, 0, 0, 0}, DIPRSConfig{Beta: 1})
	if len(res.Critical) != 0 {
		t.Errorf("critical on empty graph = %v", res.Critical)
	}
}

// TestDIPRSRecallVsExact verifies DIPRS finds nearly all the exact
// β-critical set on a searchable graph.
func TestDIPRSRecallVsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := randomKeys(rng, 1000, 16)
	g := buildGraph(rng, keys)
	fx := flat.New(keys, 1)

	var recallSum float64
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		q := make([]float32, 16)
		for j := range q {
			q[j] = rng.Float32()*2 - 1
		}
		beta := float32(1.0)
		exact, _ := fx.DIPR(q, beta)
		res := DIPRS(g, q, DIPRSConfig{Beta: beta, Capacity: 96})
		got := make(map[int32]bool, len(res.Critical))
		for _, c := range res.Critical {
			got[c.ID] = true
		}
		hit := 0
		for _, c := range exact {
			if got[c.ID] {
				hit++
			}
		}
		recallSum += float64(hit) / float64(len(exact))
	}
	if avg := recallSum / trials; avg < 0.85 {
		t.Errorf("DIPRS recall vs exact = %v, want >= 0.85", avg)
	}
}

// TestDIPRSOnlyReturnsCritical checks the invariant that every returned
// candidate is within beta of the reported maximum.
func TestDIPRSOnlyReturnsCritical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	keys := randomKeys(rng, 500, 8)
	g := buildGraph(rng, keys)
	for trial := 0; trial < 10; trial++ {
		q := make([]float32, 8)
		for j := range q {
			q[j] = rng.Float32()*2 - 1
		}
		beta := float32(0.5)
		res := DIPRS(g, q, DIPRSConfig{Beta: beta})
		for _, c := range res.Critical {
			if c.Score < res.MaxIP-beta-1e-5 {
				t.Fatalf("non-critical candidate: score %v, max %v, beta %v", c.Score, res.MaxIP, beta)
			}
		}
		// Best-first ordering.
		for i := 1; i < len(res.Critical); i++ {
			if res.Critical[i-1].Score < res.Critical[i].Score {
				t.Fatal("result not sorted best-first")
			}
		}
	}
}

// TestDIPRSDynamicSize demonstrates the point of DIPR: a planted cluster of
// near-maximal keys grows the result; an isolated maximum shrinks it.
func TestDIPRSDynamicSize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := 16
	q := make([]float32, d)
	q[0] = 1

	// Context A: a single strong needle.
	keysA := randomKeys(rng, 400, d)
	needleRow := keysA.Row(200)
	vec.Zero(needleRow)
	needleRow[0] = 10

	// Context B: thirty near-identical strong keys.
	keysB := randomKeys(rng, 400, d)
	for i := 100; i < 130; i++ {
		row := keysB.Row(i)
		vec.Zero(row)
		row[0] = 10 - 0.01*float32(i-100)
	}

	beta := float32(2.0)
	resA := DIPRS(buildGraph(rng, keysA), q, DIPRSConfig{Beta: beta})
	resB := DIPRS(buildGraph(rng, keysB), q, DIPRSConfig{Beta: beta})
	if len(resA.Critical) >= 10 {
		t.Errorf("context A critical set = %d, want small", len(resA.Critical))
	}
	if len(resB.Critical) < 25 {
		t.Errorf("context B critical set = %d, want >= 25", len(resB.Critical))
	}
}

func TestDIPRSWindowSeedPrunes(t *testing.T) {
	// Seeding the max from the window must not change correctness but
	// should reduce exploration.
	rng := rand.New(rand.NewSource(4))
	keys := randomKeys(rng, 800, 16)
	// Plant the global max in the "window" (last rows).
	winRow := keys.Row(795)
	vec.Zero(winRow)
	winRow[0] = 8
	g := buildGraph(rng, keys)
	q := make([]float32, 16)
	q[0] = 1

	window := []int{790, 791, 792, 793, 794, 795, 796, 797, 798, 799}
	seed, ok := WindowMax(q, keys, window)
	if !ok {
		t.Fatal("WindowMax reported no window")
	}
	if seed != 8 {
		t.Fatalf("WindowMax = %v, want 8", seed)
	}
	cold := DIPRS(g, q, DIPRSConfig{Beta: 1})
	warm := DIPRS(g, q, DIPRSConfig{Beta: 1, InitialMax: seed, HasInitialMax: true})
	if warm.Explored > cold.Explored {
		t.Errorf("window seed increased exploration: %d > %d", warm.Explored, cold.Explored)
	}
	if warm.MaxIP < seed {
		t.Errorf("warm MaxIP %v below seed %v", warm.MaxIP, seed)
	}
	// Every warm critical token must satisfy the criticality bound w.r.t.
	// the seeded maximum.
	for _, c := range warm.Critical {
		if c.Score < warm.MaxIP-1-1e-5 {
			t.Errorf("non-critical token under seeded max: %v vs %v", c.Score, warm.MaxIP)
		}
	}
}

// TestWindowMaxMatchesDot pins WindowMax's padded Dot4 passes: for every
// window size 1–9, including repeated positions, the seed is the first
// maximum of per-row Dot scores, bit for bit.
func TestWindowMaxMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	keys := randomKeys(rng, 40, 12)
	q := make([]float32, 12)
	for i := range q {
		q[i] = rng.Float32()*2 - 1
	}
	for size := 1; size <= 9; size++ {
		window := make([]int, size)
		for i := range window {
			window[i] = rng.Intn(keys.Rows())
		}
		want := vec.Dot(q, keys.Row(window[0]))
		for _, i := range window[1:] {
			if s := vec.Dot(q, keys.Row(i)); s > want {
				want = s
			}
		}
		if got, ok := WindowMax(q, keys, window); !ok || math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("size %d: WindowMax = %v/%v, want %v", size, got, ok, want)
		}
	}
}

func TestWindowMaxEmpty(t *testing.T) {
	if _, ok := WindowMax([]float32{1}, vec.NewMatrix(0, 1), nil); ok {
		t.Error("WindowMax on empty window reported ok")
	}
}

func TestDIPRSFilteredRespectsPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keys := randomKeys(rng, 600, 16)
	g := buildGraph(rng, keys)
	q := make([]float32, 16)
	for j := range q {
		q[j] = rng.Float32()*2 - 1
	}
	limit := int32(250)
	res := DIPRS(g, q, DIPRSConfig{Beta: 1, Filter: func(id int32) bool { return id < limit }})
	if len(res.Critical) == 0 {
		t.Fatal("filtered DIPRS returned nothing")
	}
	for _, c := range res.Critical {
		if c.ID >= limit {
			t.Fatalf("filtered result contains id %d >= %d", c.ID, limit)
		}
	}
}

// TestDIPRSFilteredRecall measures recall of filtered DIPRS against the
// exact filtered result (the Figure 12 micro-benchmark's metric).
func TestDIPRSFilteredRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	keys := randomKeys(rng, 1000, 16)
	g := buildGraph(rng, keys)
	fx := flat.New(keys, 1)
	limit := 300

	var recallSum float64
	const trials = 15
	for trial := 0; trial < trials; trial++ {
		q := make([]float32, 16)
		for j := range q {
			q[j] = rng.Float32()*2 - 1
		}
		exact, _ := fx.DIPRFiltered(q, 1, limit)
		res := DIPRS(g, q, DIPRSConfig{Beta: 1, Filter: func(id int32) bool { return int(id) < limit }})
		got := make(map[int32]bool)
		for _, c := range res.Critical {
			got[c.ID] = true
		}
		hit := 0
		for _, c := range exact {
			if got[c.ID] {
				hit++
			}
		}
		recallSum += float64(hit) / float64(len(exact))
	}
	if avg := recallSum / trials; avg < 0.7 {
		t.Errorf("filtered DIPRS recall = %v, want >= 0.7", avg)
	}
}

func TestDIPRSFilterRejectsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := randomKeys(rng, 100, 8)
	g := buildGraph(rng, keys)
	res := DIPRS(g, keys.Row(0), DIPRSConfig{Beta: 1, Filter: func(int32) bool { return false }})
	if len(res.Critical) != 0 {
		t.Errorf("all-rejecting filter returned %d candidates", len(res.Critical))
	}
}

func TestDIPRSMaxExplore(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	keys := randomKeys(rng, 500, 8)
	g := buildGraph(rng, keys)
	res := DIPRS(g, keys.Row(0), DIPRSConfig{Beta: 10, MaxExplore: 20})
	if res.Explored > 20+int(3*16) { // one frontier step may overshoot by a node's degree
		t.Errorf("Explored = %d with MaxExplore 20", res.Explored)
	}
}

func TestDIPRSCapacityExploration(t *testing.T) {
	// With a tiny capacity and a large beta the search should still find
	// the planted global max even if the entry neighbourhood scores poorly.
	rng := rand.New(rand.NewSource(9))
	keys := randomKeys(rng, 400, 8)
	row := keys.Row(333)
	vec.Zero(row)
	row[0] = 20
	g := buildGraph(rng, keys)
	q := make([]float32, 8)
	q[0] = 1
	res := DIPRS(g, q, DIPRSConfig{Beta: 0.5, Capacity: 48})
	if len(res.Critical) == 0 || res.Critical[0].ID != 333 {
		t.Errorf("planted max not found: %+v", res.Critical)
	}
}

// TestTheorem1Equivalence property-tests the paper's Theorem 1: the
// attention-score definition of a critical token (Definition 1,
// a_j >= alpha * max a_s) selects exactly the same set as the
// inner-product definition (Definition 2, ip_j >= max ip - beta) when
// beta = -sqrt(d) * ln(alpha).
func TestTheorem1Equivalence(t *testing.T) {
	const d = 64
	f := func(rawIPs []int16, alphaRaw uint8) bool {
		if len(rawIPs) == 0 {
			return true
		}
		alpha := 0.01 + 0.98*float64(alphaRaw)/255 // (0, 1)
		beta := Beta(alpha, d)

		ips := make([]float32, len(rawIPs))
		logits := make([]float32, len(rawIPs))
		sqrtD := float32(math.Sqrt(d))
		for i, r := range rawIPs {
			ips[i] = float32(r) / 8
			logits[i] = ips[i] / sqrtD
		}
		// Definition 1: softmax attention scores.
		weights := make([]float32, len(logits))
		vec.Softmax(logits, weights)
		maxW, _ := vec.Max(weights)
		maxIP, _ := vec.Max(ips)

		for i := range ips {
			def1 := float64(weights[i]) >= alpha*float64(maxW)*(1-1e-6)
			def2 := ips[i] >= maxIP-beta+1e-4 || (ips[i] >= maxIP-beta-1e-4 && def1)
			// Compare with a tolerance band: floating point at the exact
			// threshold may flip either way, so only strict disagreements
			// outside the band count.
			strictly1 := float64(weights[i]) > alpha*float64(maxW)*(1+1e-5)
			strictly2 := ips[i] > maxIP-beta+1e-3
			if strictly1 && !def2 {
				return false
			}
			if strictly2 && !def1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// diprsGraph builds a deterministic test graph plus query rows.
func diprsGraph(t *testing.T, n, d int) (*graph.Graph, *vec.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	keys := randomKeys(rng, n, d)
	queries := randomKeys(rng, 32, d)
	return buildGraph(rng, keys), queries
}

// TestDIPRSWithMatchesDIPRS pins that a reused (dirty) search state returns
// exactly what a fresh search does, with and without filtering.
func TestDIPRSWithMatchesDIPRS(t *testing.T) {
	g, queries := diprsGraph(t, 1200, 16)
	st := NewSearchState()
	for trial := 0; trial < 6; trial++ {
		q := queries.Row(trial % queries.Rows())
		cfg := DIPRSConfig{Beta: 1.5, MaxResults: 64}
		if trial%2 == 1 {
			lim := int32(600)
			cfg.Filter = func(id int32) bool { return id < lim }
		}
		want := DIPRS(g, q, cfg)
		got := DIPRSWith(st, g, q, cfg)
		if got.MaxIP != want.MaxIP || got.Explored != want.Explored {
			t.Fatalf("trial %d: MaxIP/Explored diverge: %+v vs %+v", trial, got, want)
		}
		if len(got.Critical) != len(want.Critical) {
			t.Fatalf("trial %d: %d vs %d critical tokens", trial, len(got.Critical), len(want.Critical))
		}
		for i := range want.Critical {
			if got.Critical[i] != want.Critical[i] {
				t.Fatalf("trial %d rank %d: %v vs %v", trial, i, got.Critical[i], want.Critical[i])
			}
		}
	}
}

// TestDIPRSWithZeroAllocWarm is the regression guard for the reusable
// search state: a warm unfiltered search must not allocate.
func TestDIPRSWithZeroAllocWarm(t *testing.T) {
	g, queries := diprsGraph(t, 2000, 16)
	q := queries.Row(0)
	st := NewSearchState()
	cfg := DIPRSConfig{Beta: 2, MaxResults: 128}
	DIPRSWith(st, g, q, cfg) // warm
	allocs := testing.AllocsPerRun(20, func() {
		DIPRSWith(st, g, q, cfg)
	})
	if allocs != 0 {
		t.Fatalf("warm DIPRS allocated %.1f times per run, want 0", allocs)
	}
}

// TestBetaClampsExplicitly covers the documented out-of-domain behaviour of
// the Theorem 1 conversion: no NaN ever leaks into a search parameter.
func TestBetaClampsExplicitly(t *testing.T) {
	if b := Beta(0, 64); !math.IsInf(float64(b), 1) {
		t.Errorf("Beta(0) = %v, want +Inf", b)
	}
	if b := Beta(-0.5, 64); !math.IsInf(float64(b), 1) {
		t.Errorf("Beta(-0.5) = %v, want +Inf", b)
	}
	if b := Beta(1.5, 64); b != 0 {
		t.Errorf("Beta(1.5) = %v, want 0", b)
	}
	if b := Beta(0.5, 64); math.IsNaN(float64(b)) || b <= 0 {
		t.Errorf("Beta(0.5) = %v, want positive finite", b)
	}
}

// TestDIPRSNegativeBetaClamps pins the clamp on the panic-free degenerate
// input: a negative β behaves as β = 0 (argmax-only band) instead of
// silently returning nothing.
func TestDIPRSNegativeBetaClamps(t *testing.T) {
	g, queries := diprsGraph(t, 300, 16)
	q := queries.Row(1)
	neg := DIPRS(g, q, DIPRSConfig{Beta: -5})
	zero := DIPRS(g, q, DIPRSConfig{Beta: 0})
	if len(neg.Critical) == 0 || len(neg.Critical) != len(zero.Critical) {
		t.Fatalf("negative beta returned %d critical tokens, beta=0 returned %d",
			len(neg.Critical), len(zero.Critical))
	}
}

// TestDIPRSNaNBetaPanics pins the loud failure mode for the one input that
// cannot be meaningfully clamped.
func TestDIPRSNaNBetaPanics(t *testing.T) {
	g, queries := diprsGraph(t, 100, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for NaN beta")
		}
	}()
	DIPRS(g, queries.Row(0), DIPRSConfig{Beta: float32(math.NaN())})
}
