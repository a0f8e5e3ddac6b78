package vfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vec"
)

// appendPerRow is the per-row writer AppendMatrix replaced, kept as the
// differential reference for its bytes: every row re-reads and rewrites
// the whole tail block, and a full tail is relinked to each fresh block
// after that block is written.
func appendPerRow(fs *FS, m *vec.Matrix) error {
	for i := 0; i < m.Rows(); i++ {
		if err := appendRowRef(fs, m.Row(i)); err != nil {
			return err
		}
	}
	return fs.writeSuper()
}

func appendRowRef(fs *FS, v []float32) error {
	if fs.closed {
		return ErrClosed
	}
	if len(v) != fs.dim {
		return errors.New("reference: vector dim mismatch")
	}
	if int(fs.nVectors)%fs.perBlock == 0 {
		id, err := fs.allocBlocks(1)
		if err != nil {
			return err
		}
		if err := writeBlockRef(fs, id, KindData, encodeVectorsRef(nil, v), nilBlock); err != nil {
			return err
		}
		if fs.dataTail != nilBlock {
			blk, err := fs.readBlock(fs.dataTail)
			if err != nil {
				return err
			}
			if err := writeBlockRef(fs, fs.dataTail, blk.Kind, blk.Payload, id); err != nil {
				return err
			}
		} else {
			fs.dataHead = id
		}
		fs.dataTail = id
	} else {
		blk, err := fs.readBlock(fs.dataTail)
		if err != nil {
			return err
		}
		if err := writeBlockRef(fs, fs.dataTail, KindData, encodeVectorsRef(blk.Payload, v), blk.Next); err != nil {
			return err
		}
	}
	fs.nVectors++
	fs.dirty = true
	return nil
}

func writeBlockRef(fs *FS, id int64, kind BlockKind, payload []byte, next int64) error {
	if len(payload) > fs.blockSize-headerSize {
		return errors.New("reference: payload exceeds block capacity")
	}
	buf := make([]byte, fs.blockSize)
	le := binary.LittleEndian
	buf[0] = byte(kind)
	le.PutUint32(buf[4:], uint32(len(payload)))
	le.PutUint64(buf[8:], uint64(next))
	le.PutUint32(buf[16:], crc32.ChecksumIEEE(payload))
	copy(buf[headerSize:], payload)
	_, err := fs.f.WriteAt(buf, fs.blockOffset(id))
	return err
}

func encodeVectorsRef(existing []byte, v []float32) []byte {
	out := make([]byte, len(existing)+len(v)*4)
	copy(out, existing)
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[len(existing)+i*4:], math.Float32bits(x))
	}
	return out
}

// writeOp is one step applied identically to the file under test and to
// the reference file.
type writeOp struct {
	rows   int  // rows to append (ignored when adj or reopen is set)
	adj    bool // write an adjacency chain instead
	reopen bool // close and reopen the file instead
}

// applyOps replays ops on a fresh file, appending with appendFn, and
// returns the closed file's bytes and every row appended, in order.
func applyOps(t testing.TB, path string, blockSize, dim int, ops []writeOp, seed int64,
	appendFn func(*FS, *vec.Matrix) error) ([]byte, *vec.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fs, err := Create(path, blockSize, dim)
	if err != nil {
		t.Fatal(err)
	}
	all := vec.NewMatrix(0, dim)
	for _, op := range ops {
		switch {
		case op.reopen:
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
			if fs, err = Open(path); err != nil {
				t.Fatal(err)
			}
		case op.adj:
			adj := make([][]int32, fs.NumVectors())
			for i := range adj {
				adj[i] = []int32{int32(rng.Intn(len(adj))), int32(rng.Intn(len(adj)))}
			}
			if err := fs.WriteAdjacency(adj); err != nil {
				t.Fatal(err)
			}
		default:
			m := randomMatrix(rng, op.rows, dim)
			if err := appendFn(fs, m); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < m.Rows(); i++ {
				all.Append(m.Row(i))
			}
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw, all
}

// checkSameBytes replays ops through AppendMatrix and through the per-row
// reference and requires identical files, plus a ReadAll round trip.
func checkSameBytes(t testing.TB, blockSize, dim int, ops []writeOp, seed int64) {
	t.Helper()
	dir := t.TempDir()
	got, rows := applyOps(t, filepath.Join(dir, "run.alaya"), blockSize, dim, ops, seed, (*FS).AppendMatrix)
	want, _ := applyOps(t, filepath.Join(dir, "ref.alaya"), blockSize, dim, ops, seed, appendPerRow)
	if !bytes.Equal(got, want) {
		at := 0
		for at < min(len(got), len(want)) && got[at] == want[at] {
			at++
		}
		t.Fatalf("AppendMatrix file (%d bytes) differs from per-row reference (%d bytes) at byte %d",
			len(got), len(want), at)
	}
	fs, err := Open(filepath.Join(dir, "run.alaya"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	back, err := fs.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(back.Data(), rows.Data()) {
		t.Fatalf("ReadAll returned %d rows that differ from the %d appended", back.Rows(), rows.Rows())
	}
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func TestAppendMatrixMatchesPerRowWriter(t *testing.T) {
	// 256-byte blocks of 8-dim rows hold 7 rows; 128-byte blocks of 27-dim
	// rows hold exactly one.
	for _, tc := range []struct {
		name           string
		blockSize, dim int
		ops            []writeOp
	}{
		{"empty", 256, 8, []writeOp{{rows: 0}}},
		{"fewer than a block", 256, 8, []writeOp{{rows: 3}}},
		{"one block", 256, 8, []writeOp{{rows: 7}}},
		{"multiple of a block", 256, 8, []writeOp{{rows: 21}}},
		{"partial last block", 256, 8, []writeOp{{rows: 23}}},
		{"onto a partial tail", 256, 8, []writeOp{{rows: 10}, {rows: 25}}},
		{"fill the tail exactly", 256, 8, []writeOp{{rows: 3}, {rows: 4}}},
		{"within the tail", 256, 8, []writeOp{{rows: 1}, {rows: 2}, {rows: 0}, {rows: 1}}},
		{"onto a full tail", 256, 8, []writeOp{{rows: 14}, {rows: 5}}},
		{"onto a reopened partial tail", 256, 8, []writeOp{{rows: 10}, {reopen: true}, {rows: 12}}},
		{"one row per block", 128, 27, []writeOp{{rows: 5}, {rows: 3}}},
		{"one row per block after adjacency", 128, 27, []writeOp{{rows: 2}, {adj: true}, {rows: 2}}},
		{"adjacency between appends", 256, 8, []writeOp{{rows: 10}, {adj: true}, {rows: 12}}},
		{"adjacency after a full tail", 256, 8, []writeOp{{rows: 7}, {adj: true}, {rows: 1}, {adj: true}, {rows: 20}}},
		{"4 KB blocks of 128-dim rows", DefaultBlock, 128, []writeOp{{rows: 300}, {adj: true}, {rows: 45}}},
		{"4 KB blocks of packed SQ8 rows", DefaultBlock, 32, []writeOp{{rows: 300}, {rows: 31}, {rows: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkSameBytes(t, tc.blockSize, tc.dim, tc.ops, 7)
		})
	}
}

func TestAppendMatrixClosed(t *testing.T) {
	fs, err := Create(tempFile(t), 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	fs.Close()
	if err := fs.AppendMatrix(vec.NewMatrix(3, 8)); !errors.Is(err, ErrClosed) {
		t.Errorf("AppendMatrix after close: %v, want ErrClosed", err)
	}
}

func TestAppendMatrixWidthMismatchLeavesFile(t *testing.T) {
	path := tempFile(t)
	fs, err := Create(path, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	rng := rand.New(rand.NewSource(3))
	if err := fs.AppendMatrix(randomMatrix(rng, 10, 8)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendMatrix(randomMatrix(rng, 4, 9)); err == nil {
		t.Fatal("AppendMatrix accepted 9-wide rows into an 8-dim file")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) || fs.NumVectors() != 10 {
		t.Fatalf("rejected append changed the file: %d vectors, bytes equal %v", fs.NumVectors(), bytes.Equal(before, after))
	}
}

// TestReadOnlyHandleDoesNotWrite plants a marker in the superblock's unused
// trailing bytes, which any superblock rewrite zeroes: a handle that only
// reads must leave the file byte-identical, marker included.
func TestReadOnlyHandleDoesNotWrite(t *testing.T) {
	path := tempFile(t)
	fs, err := Create(path, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	if err := fs.AppendMatrix(randomMatrix(rng, 20, 8)); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteAdjacency([][]int32{{1}, {0}}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(raw[superSize-4:], "MARK")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := re.ReadAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := re.ReadAdjacency(); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, after) {
		t.Fatal("Open → ReadAll → ReadAdjacency → Close rewrote the file")
	}
}

// TestAppendAfterReopenPersists: a handle that appends still flushes its
// superblock on Close, through AppendVector (which leaves it to Close) as
// well as AppendMatrix.
func TestAppendAfterReopenPersists(t *testing.T) {
	path := tempFile(t)
	fs, err := Create(path, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	m := randomMatrix(rng, 10, 8)
	if err := fs.AppendMatrix(m.Slice(0, 5)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 10; i++ {
		re, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if id, err := re.AppendVector(m.Row(i)); err != nil || id != i {
			t.Fatalf("AppendVector = %d, %v; want id %d", id, err, i)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	all, err := re.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(all.Data(), m.Data()) {
		t.Fatalf("reopened file holds %d rows that differ from the 10 appended", all.Rows())
	}
}

// FuzzAppendMatrix drives the run writer over random geometries, existing
// row counts and run lengths: the file must match the per-row reference
// byte for byte and read back every row.
func FuzzAppendMatrix(f *testing.F) {
	f.Add(uint16(0), uint8(7), uint16(10), uint16(25), int64(1))
	f.Add(uint16(3968), uint8(127), uint16(300), uint16(45), int64(2))
	f.Add(uint16(0), uint8(26), uint16(2), uint16(3), int64(3))
	f.Add(uint16(128), uint8(31), uint16(31), uint16(0), int64(4))
	f.Fuzz(func(t *testing.T, extra uint16, dimSeed uint8, pre, rows uint16, seed int64) {
		dim := int(dimSeed)%128 + 1
		blockSize := max(minBlockSize, headerSize+dim*4) + int(extra)%4096
		checkSameBytes(t, blockSize, dim, []writeOp{{rows: int(pre) % 400}, {rows: int(rows) % 400}}, seed)
	})
}
