package kvfile

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/vec"
)

// decodeBytes decodes a record held in memory.
func decodeBytes(b []byte) (*vec.Matrix, [][]int32, error) {
	return decode(bytes.NewReader(b), int64(len(b)))
}

func randomMatrix(rng *rand.Rand, rows, cols int) *vec.Matrix {
	m := vec.NewMatrix(rows, cols)
	for i := range m.Data() {
		m.Data()[i] = rng.Float32()*2 - 1
	}
	return m
}

// ringAdjacency links node i to its next `deg` neighbours modulo rows.
func ringAdjacency(rows, deg int) [][]int32 {
	adj := make([][]int32, rows)
	for i := range adj {
		adj[i] = make([]int32, deg)
		for j := range adj[i] {
			adj[i][j] = int32((i + j + 1) % rows)
		}
	}
	return adj
}

func sameBits(a, b []float32) bool {
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

func TestAppendReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nan := vec.NewMatrix(2, 4)
	nan.Data()[1] = math.Float32frombits(0x7fc00001) // a payload NaN survives
	nan.Data()[6] = float32(math.Inf(-1))
	for _, tc := range []struct {
		name string
		m    *vec.Matrix
		adj  [][]int32
	}{
		{"empty", vec.NewMatrix(0, 128), nil},
		{"empty with adjacency", vec.NewMatrix(0, 8), [][]int32{}},
		{"one row", randomMatrix(rng, 1, 128), nil},
		{"fp32 head", randomMatrix(rng, 300, 128), nil},
		{"packed SQ8 head", randomMatrix(rng, 300, vec.PackedWords(128)), nil},
		{"graph", randomMatrix(rng, 300, 32), ringAdjacency(300, 12)},
		{"large adjacency", randomMatrix(rng, 2000, 4), ringAdjacency(2000, 64)},
		{"isolated nodes", randomMatrix(rng, 3, 4), [][]int32{{}, {0, 2}, {}}},
		{"non-finite words", nan, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "L0H0.keys")
			raw := Append(nil, tc.m, tc.adj)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			m, adj, err := ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if m.Rows() != tc.m.Rows() || m.Cols() != tc.m.Cols() || !sameBits(m.Data(), tc.m.Data()) {
				t.Fatalf("rows %dx%d do not match the %dx%d written", m.Rows(), m.Cols(), tc.m.Rows(), tc.m.Cols())
			}
			if (adj == nil) != (tc.adj == nil) || len(adj) != len(tc.adj) {
				t.Fatalf("adjacency of %d nodes (nil %v), wrote %d (nil %v)", len(adj), adj == nil, len(tc.adj), tc.adj == nil)
			}
			for i := range adj {
				if len(adj[i]) != len(tc.adj[i]) || (len(adj[i]) > 0 && !reflect.DeepEqual(adj[i], tc.adj[i])) {
					t.Fatalf("node %d neighbours %v, wrote %v", i, adj[i], tc.adj[i])
				}
			}
			if again := Append(nil, m, adj); !bytes.Equal(again, raw) {
				t.Fatal("re-encoding the decoded record changed its bytes")
			}
		})
	}
}

// TestSparseAdjacencyPersists writes a record with a few linked nodes and a
// tail of nil neighbour lists to disk, then reads it back twice: each read
// returns the rows bit for bit and every list, the nil ones as empty.
func TestSparseAdjacencyPersists(t *testing.T) {
	m := randomMatrix(rand.New(rand.NewSource(2)), 60, 8)
	adj := make([][]int32, 60)
	copy(adj, [][]int32{{1, 2}, {0}, {0, 1}})
	path := filepath.Join(t.TempDir(), "L0H0.keys")
	if err := os.WriteFile(path, Append(nil, m, adj), 0o644); err != nil {
		t.Fatal(err)
	}
	for read := 0; read < 2; read++ {
		got, gotAdj, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows() != 60 || got.Cols() != 8 || !sameBits(got.Data(), m.Data()) {
			t.Fatalf("read %d: %dx%d rows do not match the 60x8 written", read, got.Rows(), got.Cols())
		}
		if len(gotAdj) != 60 {
			t.Fatalf("read %d: adjacency of %d nodes, wrote 60", read, len(gotAdj))
		}
		for i := range adj {
			if len(gotAdj[i]) != len(adj[i]) || (len(adj[i]) > 0 && !reflect.DeepEqual(gotAdj[i], adj[i])) {
				t.Fatalf("read %d: node %d neighbours %v, wrote %v", read, i, gotAdj[i], adj[i])
			}
		}
	}
}

// TestAppendReusesAndExtendsDst pins Append's slice contract: the record
// lands after dst's bytes, in dst's storage when it has room.
func TestAppendReusesAndExtendsDst(t *testing.T) {
	m := randomMatrix(rand.New(rand.NewSource(2)), 5, 4)
	want := Append(nil, m, nil)
	buf := make([]byte, 3, 3+len(want))
	copy(buf, "abc")
	got := Append(buf, m, nil)
	if &got[0] != &buf[0] || string(got[:3]) != "abc" || !bytes.Equal(got[3:], want) {
		t.Fatal("Append did not extend dst in place")
	}
	if got := Append([]byte("x"), m, nil); string(got[:1]) != "x" || !bytes.Equal(got[1:], want) {
		t.Fatal("Append lost dst's bytes when it grew")
	}
}

func TestDecodeDoesNotAlias(t *testing.T) {
	raw := Append(nil, randomMatrix(rand.New(rand.NewSource(3)), 4, 4), ringAdjacency(4, 2))
	m, adj, err := decodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float32(nil), m.Data()...)
	nbr := adj[0][0]
	for i := range raw {
		raw[i] = 0xff
	}
	if !sameBits(m.Data(), before) || adj[0][0] != nbr {
		t.Fatal("decoded record aliases the input bytes")
	}
	// Growing one node's list must not overwrite the next node's.
	next := append([]int32(nil), adj[1]...)
	adj[0] = append(adj[0], 3)
	if !reflect.DeepEqual(adj[1], next) {
		t.Fatal("appending to one neighbour list overwrote the next")
	}
}

func TestReadAdjacencyNone(t *testing.T) {
	_, adj, err := decodeBytes(Append(nil, vec.NewMatrix(3, 4), nil))
	if err != nil || adj != nil {
		t.Fatalf("record without adjacency: adj %v, err %v", adj, err)
	}
}

func TestReadMissingFile(t *testing.T) {
	if _, _, err := ReadFile(filepath.Join(t.TempDir(), "nope.keys")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
}

// reseal recomputes both checksums of a record, so a test can change a
// field and reach the check behind the checksums.
func reseal(b []byte) []byte {
	le.PutUint32(b[20:], crc32.ChecksumIEEE(b[:20]))
	le.PutUint32(b[len(b)-crcSize:], crc32.ChecksumIEEE(b[headerSize:len(b)-crcSize]))
	return b
}

// corruptions returns one damaged copy of a 6-row record with a degree-2
// ring adjacency per corruption class decode must reject.
func corruptions() map[string][]byte {
	valid := Append(nil, randomMatrix(rand.New(rand.NewSource(4)), 6, 4), ringAdjacency(6, 2))
	adjOff := headerSize + 6*4*4 // the adjacency's node count
	mut := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), valid...)) }
	return map[string][]byte{
		"bad magic":        mut(func(b []byte) []byte { b[0] ^= 1; return reseal(b) }),
		"bad version":      mut(func(b []byte) []byte { le.PutUint32(b[4:], 2); return reseal(b) }),
		"header checksum":  mut(func(b []byte) []byte { b[8] ^= 1; return b }),
		"payload checksum": mut(func(b []byte) []byte { b[headerSize+3] ^= 0x40; return b }),
		"adjacency checksum": mut(func(b []byte) []byte {
			b[len(b)-crcSize-1] ^= 1
			return b
		}),
		"trailer checksum":      mut(func(b []byte) []byte { b[len(b)-1] ^= 1; return b }),
		"truncated":             valid[:len(valid)-1],
		"extended":              append(append([]byte(nil), valid...), 0),
		"shorter than a header": valid[:headerSize],
		"rows lie":              mut(func(b []byte) []byte { le.PutUint32(b[8:], 7); return reseal(b) }),
		"rows overflow": mut(func(b []byte) []byte {
			le.PutUint32(b[8:], math.MaxUint32)
			le.PutUint32(b[12:], 1<<16)
			return reseal(b)
		}),
		"zero columns":     mut(func(b []byte) []byte { le.PutUint32(b[12:], 0); return reseal(b) }),
		"columns overflow": mut(func(b []byte) []byte { le.PutUint32(b[12:], math.MaxUint32); return reseal(b) }),
		"adjacency length lies": mut(func(b []byte) []byte {
			le.PutUint32(b[16:], le.Uint32(b[16:])+4)
			return reseal(b)
		}),
		"adjacency not whole words": mut(func(b []byte) []byte {
			b = append(b[:len(b)-crcSize], 0, 0, 0, 0, 0)
			le.PutUint32(b[16:], le.Uint32(b[16:])+1)
			return reseal(b)
		}),
		"adjacency node count": mut(func(b []byte) []byte { le.PutUint32(b[adjOff:], 5); return reseal(b) }),
		"adjacency degree overrun": mut(func(b []byte) []byte {
			le.PutUint32(b[adjOff+4:], 1000)
			return reseal(b)
		}),
		"adjacency trailing ids": mut(func(b []byte) []byte {
			b = append(b[:len(b)-crcSize], 0, 0, 0, 0, 0, 0, 0, 0)
			le.PutUint32(b[16:], le.Uint32(b[16:])+4)
			return reseal(b)
		}),
		"neighbour id out of range": mut(func(b []byte) []byte {
			le.PutUint32(b[adjOff+8:], 6)
			return reseal(b)
		}),
		"negative neighbour id": mut(func(b []byte) []byte {
			le.PutUint32(b[adjOff+8:], math.MaxUint32)
			return reseal(b)
		}),
	}
}

func TestCorruptionDetected(t *testing.T) {
	for name, raw := range corruptions() {
		t.Run(name, func(t *testing.T) {
			if _, _, err := decodeBytes(raw); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode accepted a corrupt record: err %v", err)
			}
		})
	}
}

// TestTruncatedFileDetected cuts a record at every length short of whole.
func TestTruncatedFileDetected(t *testing.T) {
	raw := Append(nil, randomMatrix(rand.New(rand.NewSource(5)), 3, 4), ringAdjacency(3, 2))
	for n := 0; n < len(raw); n++ {
		if _, _, err := decodeBytes(raw[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("record cut to %d of %d bytes: err %v", n, len(raw), err)
		}
	}
}
