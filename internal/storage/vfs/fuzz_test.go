package vfs

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// validFileBytes builds a well-formed vector file (vectors + adjacency) and
// returns its raw bytes, seeding the fuzzer with inputs that reach deep
// into the decode paths.
func validFileBytes(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "seed.alaya")
	fs, err := Create(path, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	m := randomMatrix(rng, 20, 8)
	if err := fs.AppendMatrix(m); err != nil {
		t.Fatal(err)
	}
	adj := make([][]int32, 20)
	for i := range adj {
		adj[i] = []int32{int32((i + 1) % 20), int32((i + 7) % 20)}
	}
	if err := fs.WriteAdjacency(adj); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// forgedSuper builds a crc-valid superblock describing an impossible file:
// bit flips rarely survive the checksum, so geometry attacks are seeded
// explicitly. Open must reject these with an error, never divide by zero
// or allocate from the forged counts.
func forgedSuper(blockSize, dim uint32, nVectors, dataHead, dataTail, indexHead, nBlocks uint64) []byte {
	buf := make([]byte, superSize)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], magic)
	le.PutUint32(buf[4:], version)
	le.PutUint32(buf[8:], blockSize)
	le.PutUint32(buf[12:], dim)
	le.PutUint64(buf[16:], nVectors)
	le.PutUint64(buf[24:], dataHead)
	le.PutUint64(buf[32:], dataTail)
	le.PutUint64(buf[40:], indexHead)
	le.PutUint64(buf[48:], nBlocks)
	le.PutUint32(buf[56:], crc32.ChecksumIEEE(buf[:56]))
	return buf
}

// FuzzOpen feeds arbitrary bytes to Open and, when the file parses,
// exercises every read path. Truncated, bit-flipped or crafted spill files
// must surface errors — never panic, loop forever, or silently return
// wrong rows (ReadAll must agree with NumVectors).
func FuzzOpen(f *testing.F) {
	valid := validFileBytes(f)
	f.Add(valid)
	// Truncations at interesting boundaries.
	f.Add(valid[:superSize])
	f.Add(valid[:superSize+100])
	f.Add(valid[:len(valid)/2])
	// A payload bit flip (caught by the block crc).
	flipped := append([]byte(nil), valid...)
	flipped[superSize+headerSize+3] ^= 0x40
	f.Add(flipped)
	// Crc-valid superblocks with hostile geometry: a vector larger than the
	// block (division by zero in slot math), forged counts (allocation
	// sizes), and out-of-range chain heads.
	f.Add(forgedSuper(128, 4096, 10, 0, 0, ^uint64(0), 1))
	f.Add(forgedSuper(256, 8, ^uint64(0)>>1, 0, 0, ^uint64(0), 4))
	f.Add(forgedSuper(256, 8, 10, 99, 99, 99, 2))
	f.Add(forgedSuper(256, 8, 0, ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)>>1))
	// An index chain whose single block points at itself: cycle detection.
	cycle := append([]byte(nil), valid...)
	// Rewrite the index head block's next pointer to itself. The index head
	// id lives at offset 40 of the superblock.
	idxHead := binary.LittleEndian.Uint64(cycle[40:])
	if int64(idxHead) != nilBlock {
		blockOff := superSize + int(idxHead)*256
		binary.LittleEndian.PutUint64(cycle[blockOff+8:], idxHead)
		binary.LittleEndian.PutUint32(cycle[56:], crc32.ChecksumIEEE(cycle[:56]))
		f.Add(cycle)
	}
	// A data chain whose empty head block points at itself: the ReadAll
	// walk bound.
	f.Add(selfLoopDataHead(valid))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.alaya")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		fs, err := Open(path)
		if err != nil {
			return // rejected: fine
		}
		defer fs.Close()

		if fs.NumVectors() < 0 || fs.perBlock < 1 {
			t.Fatalf("accepted impossible geometry: %d vectors, %d per block",
				fs.NumVectors(), fs.perBlock)
		}
		if _, err := fs.Stat(); err != nil {
			return
		}
		if m, err := fs.ReadAll(); err == nil && m.Rows() != fs.NumVectors() {
			t.Fatalf("ReadAll returned %d rows for %d vectors without error", m.Rows(), fs.NumVectors())
		}
		fs.ReadAdjacency()
	})
}
