package storage

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/index/graph"
	"repro/internal/query"
	"repro/internal/storage/buffer"
	"repro/internal/storage/vfs"
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

// setupStore writes a matrix to disk and opens it as a VectorStore backed
// by a buffer manager of the given capacity.
func setupStore(t *testing.T, m *vec.Matrix, capacity int64) (*VectorStore, *buffer.Manager, *vfs.FS) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "head.keys")
	fs, err := vfs.Create(path, 512, m.Cols())
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendMatrix(m); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })

	bm := buffer.New(capacity, Fetcher(map[string]*vfs.FS{path: fs}))
	store, err := NewVectorStore(fs, bm)
	if err != nil {
		t.Fatal(err)
	}
	return store, bm, fs
}

func TestVectorStoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 200, 16)
	store, bm, _ := setupStore(t, m, 1<<20)
	if store.Len() != 200 || store.Dim() != 16 {
		t.Fatalf("store shape %d/%d", store.Len(), store.Dim())
	}
	buf := make([]float32, 16)
	for _, id := range []int{0, 6, 7, 13, 199} {
		if err := store.Vector(id, buf); err != nil {
			t.Fatalf("Vector(%d): %v", id, err)
		}
		for j := range buf {
			if buf[j] != m.Row(id)[j] {
				t.Fatalf("vector %d dim %d mismatch", id, j)
			}
		}
	}
	if st := bm.Stats(); st.Misses == 0 {
		t.Error("no buffer activity recorded")
	}
}

func TestVectorStoreErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	store, _, _ := setupStore(t, randomMatrix(rng, 10, 8), 1<<20)
	buf := make([]float32, 8)
	if err := store.Vector(-1, buf); err == nil {
		t.Error("negative id accepted")
	}
	if err := store.Vector(10, buf); err == nil {
		t.Error("out-of-range id accepted")
	}
	if err := store.Vector(0, make([]float32, 4)); err == nil {
		t.Error("wrong buffer size accepted")
	}
}

func TestVectorStoreCacheHits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	store, bm, _ := setupStore(t, randomMatrix(rng, 50, 8), 1<<20)
	buf := make([]float32, 8)
	// Same vector twice: second access must be a cache hit.
	store.Vector(7, buf)
	store.Vector(7, buf)
	st := bm.Stats()
	if st.Hits < 1 {
		t.Errorf("stats = %+v, want at least one hit", st)
	}
}

func TestVectorStoreUnderMemoryPressure(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomMatrix(rng, 400, 16)
	// Capacity of ~2 blocks: constant eviction, still correct.
	store, bm, _ := setupStore(t, m, 1100)
	buf := make([]float32, 16)
	for id := 0; id < 400; id += 7 {
		if err := store.Vector(id, buf); err != nil {
			t.Fatalf("Vector(%d) under pressure: %v", id, err)
		}
		if buf[0] != m.Row(id)[0] {
			t.Fatalf("vector %d wrong under pressure", id)
		}
	}
	if st := bm.Stats(); st.Evictions == 0 {
		t.Error("no evictions under pressure")
	}
}

func TestScanBlocksVisitsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomMatrix(rng, 123, 8)
	store, _, _ := setupStore(t, m, 1<<20)
	seen := 0
	err := store.ScanBlocks(func(id int, v []float32) error {
		if id != seen {
			t.Fatalf("scan out of order: %d after %d", id, seen-1)
		}
		if v[0] != m.Row(id)[0] {
			t.Fatalf("scan vector %d wrong", id)
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 123 {
		t.Fatalf("scanned %d of 123", seen)
	}
}

func TestFetcherUnknownFile(t *testing.T) {
	f := Fetcher(map[string]*vfs.FS{})
	if _, err := f(buffer.Key{File: "missing", Block: 0}); err == nil {
		t.Error("unknown file accepted")
	}
}

// TestDiskGraphDIPRS runs the full DIPRS traversal over a disk-backed
// graph: adjacency in memory, vectors demand-paged through the buffer
// manager — and verifies it matches the in-memory graph's result.
func TestDiskGraphDIPRS(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	keys := randomMatrix(rng, 500, 16)
	g := graph.Build(keys, nil, graph.Config{Degree: 12, EfConstruction: 64, Workers: 2})

	store, _, _ := setupStore(t, keys, 1<<20)
	adj := make([][]int32, g.Len())
	for i := range adj {
		adj[i] = g.Neighbors(int32(i))
	}
	dg, err := NewDiskGraph(adj, g.Entry(), store)
	if err != nil {
		t.Fatal(err)
	}

	q := make([]float32, 16)
	for j := range q {
		q[j] = rng.Float32()*2 - 1
	}
	memRes := query.DIPRS(g, q, query.DIPRSConfig{Beta: 1})
	diskRes := query.DIPRS(dg, q, query.DIPRSConfig{Beta: 1})
	if dg.Err() != nil {
		t.Fatalf("disk graph read error: %v", dg.Err())
	}
	if len(memRes.Critical) != len(diskRes.Critical) {
		t.Fatalf("critical sets differ: %d vs %d", len(memRes.Critical), len(diskRes.Critical))
	}
	for i := range memRes.Critical {
		if memRes.Critical[i].ID != diskRes.Critical[i].ID {
			t.Fatalf("rank %d: %d vs %d", i, memRes.Critical[i].ID, diskRes.Critical[i].ID)
		}
	}
}

func TestDiskGraphValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	store, _, _ := setupStore(t, randomMatrix(rng, 10, 8), 1<<20)
	if _, err := NewDiskGraph(make([][]int32, 5), 0, store); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := NewDiskGraph(make([][]int32, 10), 99, store); err == nil {
		t.Error("bad entry accepted")
	}
}

func TestDataBlockIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randomMatrix(rng, 40, 16) // 512B blocks, 16-dim: 7 vectors/block
	path := filepath.Join(t.TempDir(), "x.keys")
	fs, err := vfs.Create(path, 512, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	fs.AppendMatrix(m)
	ids, err := fs.DataBlockIDs()
	if err != nil {
		t.Fatal(err)
	}
	want := (40 + fs.VectorsPerBlock() - 1) / fs.VectorsPerBlock()
	if len(ids) != want {
		t.Fatalf("chain has %d blocks, want %d", len(ids), want)
	}
}

// TestFileSetStackedHandles pins that registrations stack per path: with
// two handles on one file, removing (and closing) one leaves the other
// serving fetches, and only removing both makes a fetch fail.
func TestFileSetStackedHandles(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	_, _, fs := setupStore(t, randomMatrix(rng, 20, 8), 1<<20)
	ids, err := fs.DataBlockIDs()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fs.ReadBlock(ids[1])
	if err != nil {
		t.Fatal(err)
	}

	set := NewFileSet()
	fetch := set.Fetcher()
	key := buffer.Key{File: fs.Path(), Block: ids[1]}
	var handles [2]*vfs.FS
	for i := range handles {
		if handles[i], err = vfs.Open(fs.Path()); err != nil {
			t.Fatal(err)
		}
		defer handles[i].Close()
		set.Add(handles[i])
	}

	set.Remove(handles[0])
	handles[0].Close()
	got, err := fetch(key)
	if err != nil {
		t.Fatalf("fetch with one handle still registered: %v", err)
	}
	if string(got) != string(want.Payload) {
		t.Fatal("fetched payload differs from the block on disk")
	}

	set.Remove(handles[1])
	if _, err := fetch(key); err == nil {
		t.Fatal("fetch succeeded after every handle was removed")
	}
}
