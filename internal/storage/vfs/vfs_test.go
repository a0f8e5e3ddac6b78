package vfs

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/vec"
)

func tempFile(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "head.alaya")
}

func randomMatrix(rng *rand.Rand, n, d int) *vec.Matrix {
	m := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			m.Row(i)[j] = rng.Float32()*2 - 1
		}
	}
	return m
}

func TestCreateGeometryValidation(t *testing.T) {
	path := tempFile(t)
	if _, err := Create(path, 64, 16); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("tiny block: err = %v", err)
	}
	if _, err := Create(path, 4096, 0); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("zero dim: err = %v", err)
	}
	if _, err := Create(path, 256, 128); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("vector larger than block: err = %v", err)
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	path := tempFile(t)
	fs, err := Create(path, 512, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 100, 8)
	if err := fs.AppendMatrix(m); err != nil {
		t.Fatal(err)
	}
	if fs.NumVectors() != 100 {
		t.Fatalf("NumVectors = %d", fs.NumVectors())
	}
	got, err := fs.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 1, 14, 15, 16, 50, 99} {
		for j, x := range got.Row(id) {
			if x != m.Row(id)[j] {
				t.Fatalf("vector %d dim %d: %v != %v", id, j, x, m.Row(id)[j])
			}
		}
	}
	if _, err := fs.AppendVector(make([]float32, 3)); err == nil {
		t.Error("wrong vector dim accepted")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := tempFile(t)
	fs, err := Create(path, 512, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	m := randomMatrix(rng, 60, 8)
	if err := fs.AppendMatrix(m); err != nil {
		t.Fatal(err)
	}
	adj := [][]int32{{1, 2}, {0}, {0, 1}}
	// Pad adjacency to match 60 nodes (sparse tail).
	for len(adj) < 60 {
		adj = append(adj, nil)
	}
	if err := fs.WriteAdjacency(adj); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumVectors() != 60 || re.Dim() != 8 {
		t.Fatalf("reopened: %d vectors dim %d", re.NumVectors(), re.Dim())
	}
	all, err := re.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		for j := 0; j < 8; j++ {
			if all.Row(i)[j] != m.Row(i)[j] {
				t.Fatalf("vector %d differs after reopen", i)
			}
		}
	}
	gotAdj, err := re.ReadAdjacency()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotAdj) != 60 || len(gotAdj[0]) != 2 || gotAdj[0][1] != 2 || len(gotAdj[5]) != 0 {
		t.Fatalf("adjacency after reopen = %v...", gotAdj[:3])
	}
}

func TestReadAdjacencyNone(t *testing.T) {
	fs, err := Create(tempFile(t), 512, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	adj, err := fs.ReadAdjacency()
	if err != nil || adj != nil {
		t.Errorf("ReadAdjacency on fresh file = %v, %v", adj, err)
	}
}

func TestLargeAdjacencySpansBlocks(t *testing.T) {
	fs, err := Create(tempFile(t), 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	rng := rand.New(rand.NewSource(3))
	adj := make([][]int32, 500)
	for i := range adj {
		deg := rng.Intn(20)
		adj[i] = make([]int32, deg)
		for j := range adj[i] {
			adj[i][j] = int32(rng.Intn(500))
		}
	}
	if err := fs.WriteAdjacency(adj); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAdjacency()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 500 {
		t.Fatalf("nodes = %d", len(got))
	}
	for i := range adj {
		if len(got[i]) != len(adj[i]) {
			t.Fatalf("node %d degree %d != %d", i, len(got[i]), len(adj[i]))
		}
		for j := range adj[i] {
			if got[i][j] != adj[i][j] {
				t.Fatalf("node %d neighbour %d differs", i, j)
			}
		}
	}
}

func TestAdjacencyRecordTooBig(t *testing.T) {
	fs, err := Create(tempFile(t), 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	huge := make([]int32, 1000)
	if err := fs.WriteAdjacency([][]int32{huge}); err == nil {
		t.Error("oversized record accepted")
	}
}

func TestClosedFileErrors(t *testing.T) {
	fs, err := Create(tempFile(t), 512, 8)
	if err != nil {
		t.Fatal(err)
	}
	fs.Close()
	if _, err := fs.AppendVector(make([]float32, 8)); !errors.Is(err, ErrClosed) {
		t.Errorf("append after close: %v", err)
	}
	if _, err := fs.readBlock(0); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close: %v", err)
	}
	if _, err := fs.ReadAll(); !errors.Is(err, ErrClosed) {
		t.Errorf("ReadAll after close: %v", err)
	}
	if err := fs.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double close: %v", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	path := tempFile(t)
	fs, err := Create(path, 512, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	if err := fs.AppendMatrix(randomMatrix(rng, 30, 8)); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	// Flip a byte inside the first data block's payload.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[superSize+headerSize+3] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := re.ReadAll(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupted read: err = %v, want ErrCorrupt", err)
	}
}

func TestCorruptSuperblockDetected(t *testing.T) {
	path := tempFile(t)
	fs, err := Create(path, 512, 8)
	if err != nil {
		t.Fatal(err)
	}
	fs.Close()
	raw, _ := os.ReadFile(path)
	raw[10] ^= 0xFF // inside geometry fields
	os.WriteFile(path, raw, 0o644)
	if _, err := Open(path); err == nil {
		t.Error("corrupt superblock accepted")
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope.alaya")); err == nil {
		t.Error("missing file opened")
	}
}

func TestBlockKindString(t *testing.T) {
	if KindData.String() != "data" || KindIndex.String() != "index" {
		t.Error("kind names wrong")
	}
	if BlockKind(9).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestStat(t *testing.T) {
	fs, err := Create(tempFile(t), 512, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	rng := rand.New(rand.NewSource(5))
	fs.AppendMatrix(randomMatrix(rng, 20, 8))
	st, err := fs.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Vectors != 20 || st.Dim != 8 || st.HasIndex {
		t.Errorf("Stat = %+v", st)
	}
	if st.VectorBytes != 20*8*4 {
		t.Errorf("VectorBytes = %d", st.VectorBytes)
	}
}

func TestReadBlockOutOfRange(t *testing.T) {
	fs, err := Create(tempFile(t), 512, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := fs.readBlock(99); err == nil {
		t.Error("out-of-range block read accepted")
	}
}

func TestTruncatedFileDetected(t *testing.T) {
	path := tempFile(t)
	fs, err := Create(path, 512, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	if err := fs.AppendMatrix(randomMatrix(rng, 100, 8)); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	// Chop the file in half: reads past the truncation must error, not
	// return garbage.
	raw, _ := os.ReadFile(path)
	os.WriteFile(path, raw[:len(raw)/2], 0o644)
	re, err := Open(path)
	if err != nil {
		t.Fatal(err) // superblock intact
	}
	defer re.Close()
	if _, err := re.ReadAll(); err == nil {
		t.Error("ReadAll on truncated file succeeded")
	}
}

// selfLoopDataHead returns a copy of a vector file's bytes whose head data
// block is rewritten as an empty data block (length 0, crc 0) linked to
// itself. Open accepts it: the superblock is untouched and the block's crc
// matches its empty payload.
func selfLoopDataHead(raw []byte) []byte {
	out := append([]byte(nil), raw...)
	le := binary.LittleEndian
	blockSize := int(le.Uint32(out[8:]))
	head := le.Uint64(out[24:])
	blk := out[superSize+int(head)*blockSize:]
	blk[0] = byte(KindData)
	le.PutUint32(blk[4:], 0)
	le.PutUint64(blk[8:], head)
	le.PutUint32(blk[16:], 0)
	return out
}

// TestReadAllCorruptChainCycle pins the walk bound on the data chain: a
// head block that holds no rows and points at itself must surface as
// ErrCorrupt, not spin. LoadContext and the spill reload read every file
// through ReadAll, so a damaged spill directory would otherwise hang a
// create.
func TestReadAllCorruptChainCycle(t *testing.T) {
	path := tempFile(t)
	fs, err := Create(path, 512, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendMatrix(randomMatrix(rand.New(rand.NewSource(11)), 3, 8)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, selfLoopDataHead(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatalf("Open rejected the file: %v", err)
	}
	defer re.Close()
	done := make(chan error, 1)
	go func() {
		_, err := re.ReadAll()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ReadAll: err = %v, want ErrCorrupt", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReadAll still running after 5s on a self-linked data chain")
	}
}
