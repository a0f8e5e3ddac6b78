package graph

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/index"
	"repro/internal/index/knn"
	"repro/internal/vec"
)

func randomMatrix(rng *rand.Rand, n, d int) *vec.Matrix {
	m := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			m.Row(i)[j] = rng.Float32()*2 - 1
		}
	}
	return m
}

// oodQueries builds queries drawn from a different distribution than keys
// (shifted clusters), mirroring the decode-query-vs-key OOD setting.
func oodQueries(rng *rand.Rand, keys *vec.Matrix, m int) *vec.Matrix {
	q := vec.NewMatrix(m, keys.Cols())
	for i := 0; i < m; i++ {
		base := keys.Row(rng.Intn(keys.Rows()))
		for j := range q.Row(i) {
			q.Row(i)[j] = base[j]*1.5 + rng.Float32()*0.4 - 0.2
		}
	}
	return q
}

func TestBuildEmpty(t *testing.T) {
	g := Build(vec.NewMatrix(0, 4), nil, Config{})
	if g.Len() != 0 {
		t.Fatalf("Len = %d", g.Len())
	}
	if got := g.TopK([]float32{1, 2, 3, 4}, 5); got != nil {
		t.Errorf("TopK on empty graph = %v", got)
	}
}

func TestBuildSingleNode(t *testing.T) {
	keys := vec.NewMatrix(1, 4)
	keys.SetRow(0, []float32{1, 0, 0, 0})
	g := Build(keys, nil, Config{})
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	got := g.TopK([]float32{1, 0, 0, 0}, 3)
	if len(got) != 1 || got[0].ID != 0 {
		t.Errorf("TopK = %v", got)
	}
}

func TestIncrementalBuildValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := randomMatrix(rng, 300, 16)
	g := Build(keys, nil, Config{Degree: 12, Workers: 2})
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for i := 0; i < g.Len(); i++ {
		if len(g.Neighbors(int32(i))) > 2*g.Degree() {
			t.Fatalf("node %d degree %d far exceeds bound %d", i, len(g.Neighbors(int32(i))), g.Degree())
		}
	}
}

func TestBipartiteBuildValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	keys := randomMatrix(rng, 300, 16)
	queries := oodQueries(rng, keys, 120)
	g := Build(keys, queries, Config{Degree: 12, QueryKNN: 8, Workers: 2})
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestSearchRecallIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := randomMatrix(rng, 800, 16)
	g := Build(keys, nil, Config{Degree: 16, EfConstruction: 96, Workers: 2})
	measureRecall(t, g, keys, rng, 0.85)
}

func TestSearchRecallBipartite(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	keys := randomMatrix(rng, 800, 16)
	queries := oodQueries(rng, keys, 600)
	g := Build(keys, queries, Config{Degree: 16, QueryKNN: 12, Workers: 2})
	measureRecall(t, g, keys, rng, 0.80)
}

func measureRecall(t *testing.T, g *Graph, keys *vec.Matrix, rng *rand.Rand, want float64) {
	t.Helper()
	const k = 10
	queries := oodQueries(rng, keys, 50)
	truth := knn.Exact(queries, keys, k, 2)
	approx := make([][]index.Candidate, queries.Rows())
	for i := 0; i < queries.Rows(); i++ {
		approx[i] = g.SearchEf(queries.Row(i), k, 128)
	}
	if r := knn.Recall(truth, approx); r < want {
		t.Errorf("recall@%d = %v, want >= %v", k, r, want)
	}
}

func TestTopKSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keys := randomMatrix(rng, 200, 8)
	g := Build(keys, nil, Config{Degree: 12})
	q := make([]float32, 8)
	for j := range q {
		q[j] = rng.Float32()
	}
	got := g.TopK(q, 10)
	if len(got) != 10 {
		t.Fatalf("TopK returned %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Score < got[i].Score {
			t.Errorf("results not sorted at %d", i)
		}
	}
}

func TestEntryIsMaxNorm(t *testing.T) {
	keys := vec.NewMatrix(3, 2)
	keys.SetRow(0, []float32{1, 0})
	keys.SetRow(1, []float32{5, 5})
	keys.SetRow(2, []float32{0, 1})
	g := Build(keys, nil, Config{})
	if g.Entry() != 1 {
		t.Errorf("Entry = %d, want 1 (max norm)", g.Entry())
	}
}

func TestNeighborsAndVectorAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	keys := randomMatrix(rng, 50, 8)
	g := Build(keys, nil, Config{Degree: 8})
	if g.Keys() != keys {
		t.Error("Keys() does not return the underlying matrix")
	}
	v := g.Vector(7)
	for j := range v {
		if v[j] != keys.Row(7)[j] {
			t.Fatal("Vector(7) differs from keys row")
		}
	}
	if g.Bytes() <= 0 {
		t.Error("Bytes not positive")
	}
}

func TestDegreeBoundAfterBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := randomMatrix(rng, 400, 8)
	queries := oodQueries(rng, keys, 200)
	g := Build(keys, queries, Config{Degree: 10, QueryKNN: 8})
	over := 0
	for i := 0; i < g.Len(); i++ {
		if len(g.Neighbors(int32(i))) > g.Degree()+4 {
			over++
		}
	}
	// The final connectivity patch may push a handful of nodes past the
	// bound; it must stay rare.
	if over > g.Len()/20 {
		t.Errorf("%d/%d nodes exceed degree bound", over, g.Len())
	}
}

func TestSearchEfZeroK(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	keys := randomMatrix(rng, 20, 8)
	g := Build(keys, nil, Config{})
	if got := g.SearchEf(keys.Row(0), 0, 16); got != nil {
		t.Errorf("SearchEf(k=0) = %v", got)
	}
}

func TestIdenticalVectorsDoNotBreakBuild(t *testing.T) {
	// Degenerate input: many duplicate vectors.
	keys := vec.NewMatrix(20, 4)
	for i := 0; i < 20; i++ {
		keys.SetRow(i, []float32{1, 2, 3, 4})
	}
	g := Build(keys, nil, Config{Degree: 4})
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	got := g.TopK([]float32{1, 2, 3, 4}, 5)
	if len(got) != 5 {
		t.Errorf("TopK on duplicates returned %d", len(got))
	}
}

func TestZeroVectorsDoNotBreakBuild(t *testing.T) {
	keys := vec.NewMatrix(10, 4) // all zeros
	g := Build(keys, nil, Config{Degree: 4})
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestSearchEfStateMatchesSearchEf pins that a reused (dirty) search state
// returns exactly what a fresh search does.
func TestSearchEfStateMatchesSearchEf(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	keys := randomMatrix(rng, 1500, 16)
	queries := oodQueries(rng, keys, 300)
	g := Build(keys, queries, Config{Degree: 12, QueryKNN: 8, EfConstruction: 48})
	var st SearchState
	for trial := 0; trial < 8; trial++ {
		q := queries.Row(rng.Intn(queries.Rows()))
		want := g.SearchEf(q, 10, 64)
		got := g.searchInternal(&st, q, 10, 64, -1)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d rank %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestSearchEfStateZeroAllocWarm guards that warm beam search does not
// allocate: the visited set clears by epoch, heaps and output reuse their
// backing arrays.
func TestSearchEfStateZeroAllocWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	keys := randomMatrix(rng, 2000, 16)
	queries := oodQueries(rng, keys, 400)
	g := Build(keys, queries, Config{Degree: 12, QueryKNN: 8, EfConstruction: 48})
	q := queries.Row(0)
	var st SearchState
	g.searchInternal(&st, q, 10, 64, -1) // warm
	allocs := testing.AllocsPerRun(20, func() {
		g.searchInternal(&st, q, 10, 64, -1)
	})
	if allocs != 0 {
		t.Fatalf("warm graph search allocated %.1f times per run, want 0", allocs)
	}
}

// adjacencyHash is the FNV-1a hash of g's entry point and every node's
// neighbour list (length, then ids), in node order.
func adjacencyHash(g *Graph) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	put(uint32(g.Entry()))
	for i := 0; i < g.Len(); i++ {
		nb := g.Neighbors(int32(i))
		put(uint32(len(nb)))
		for _, v := range nb {
			put(uint32(v))
		}
	}
	return h.Sum64()
}

// TestBuildAdjacencyGolden pins both build paths edge for edge on a fixed
// seeded 2048×128 input. The hashes were recorded with a scalar per-row
// vec.Dot under the exact kNN, the beam search and the prune; scoring four
// rows per kernel pass must not move a single edge. They hold wherever
// float32 multiply-add is not fused (amd64, 386); architectures whose
// compiler fuses it (arm64, ppc64, s390x, riscv64) round Dot differently.
func TestBuildAdjacencyGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("golden hashes assume unfused float32 multiply-add; GOARCH=%s may fuse", runtime.GOARCH)
	}
	rng := rand.New(rand.NewSource(2048))
	keys := randomMatrix(rng, 2048, 128)
	queries := oodQueries(rng, keys, 512)
	cfg := Config{Degree: 16, QueryKNN: 12, EfConstruction: 64, Workers: 2}
	for _, tc := range []struct {
		name    string
		queries *vec.Matrix
		want    uint64
	}{
		{"bipartite", queries, 0x3dc6cf17052347da},
		{"incremental", nil, 0x95ee1630405dee20},
	} {
		if got := adjacencyHash(Build(keys, tc.queries, cfg)); got != tc.want {
			t.Errorf("%s build adjacency hash %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}
