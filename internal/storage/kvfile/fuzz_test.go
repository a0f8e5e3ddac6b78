package kvfile

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/vec"
)

// FuzzDecode feeds arbitrary bytes to decode. A damaged or crafted file
// must come back as an error, never a panic or an allocation the file's
// length does not pay for; whatever decode accepts has one adjacency record
// per row with every id in range, and Append re-encodes it to exactly the
// input bytes. The seeds are valid records and one of each corruption
// class.
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(6))
	f.Add(Append(nil, randomMatrix(rng, 20, 8), ringAdjacency(20, 3)))
	f.Add(Append(nil, randomMatrix(rng, 5, 2), nil))
	f.Add(Append(nil, vec.NewMatrix(0, 4), [][]int32{}))
	bad := corruptions()
	names := make([]string, 0, len(bad))
	for name := range bad {
		names = append(names, name)
	}
	sort.Strings(names) // stable seed numbering
	for _, name := range names {
		f.Add(bad[name])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, adj, err := decodeBytes(data)
		if err != nil {
			return
		}
		if adj != nil {
			if len(adj) != m.Rows() {
				t.Fatalf("accepted %d adjacency records for %d rows", len(adj), m.Rows())
			}
			for i, nbrs := range adj {
				for _, v := range nbrs {
					if v < 0 || int(v) >= m.Rows() {
						t.Fatalf("accepted neighbour %d of node %d for %d rows", v, i, m.Rows())
					}
				}
			}
		}
		if again := Append(nil, m, adj); !bytes.Equal(again, data) {
			t.Fatalf("re-encoding an accepted record changed it:\n in  %x\n out %x", data, again)
		}
	})
}

// FuzzAppend drives the writer over random shapes: a record appended after
// existing bytes leaves them as they were, fills exactly its own length, and
// decodes back to the same rows bit for bit and the same neighbour lists,
// with or without an adjacency and with isolated nodes among the linked.
func FuzzAppend(f *testing.F) {
	f.Add(uint16(0), uint16(1), uint8(0), uint8(0), int64(1))
	f.Add(uint16(1), uint16(128), uint8(0), uint8(3), int64(2))
	f.Add(uint16(60), uint16(8), uint8(2), uint8(0), int64(3))
	f.Add(uint16(300), uint16(vec.PackedWords(128)), uint8(12), uint8(17), int64(4))

	f.Fuzz(func(t *testing.T, rows, cols uint16, deg, prefix uint8, seed int64) {
		r, c := int(rows%512), 1+int(cols%256)
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(rng, r, c)
		var adj [][]int32
		if deg > 0 {
			adj = make([][]int32, r)
			for i := range adj {
				if rng.Intn(4) == 0 {
					continue // an isolated node, written as a nil list
				}
				adj[i] = make([]int32, rng.Intn(int(deg%32)+1))
				for j := range adj[i] {
					adj[i][j] = int32(rng.Intn(r))
				}
			}
		}
		head := make([]byte, prefix)
		rng.Read(head)
		out := Append(append([]byte(nil), head...), m, adj)
		if !bytes.Equal(out[:len(head)], head) {
			t.Fatal("Append changed the bytes before the record")
		}
		got, gotAdj, err := decodeBytes(out[len(head):])
		if err != nil {
			t.Fatalf("decoding a %dx%d record: %v", r, c, err)
		}
		if got.Rows() != r || got.Cols() != c || !sameBits(got.Data(), m.Data()) {
			t.Fatalf("rows %dx%d do not match the %dx%d written", got.Rows(), got.Cols(), r, c)
		}
		if (gotAdj == nil) != (adj == nil) || len(gotAdj) != len(adj) {
			t.Fatalf("adjacency of %d nodes (nil %v), wrote %d (nil %v)", len(gotAdj), gotAdj == nil, len(adj), adj == nil)
		}
		for i := range adj {
			if len(gotAdj[i]) != len(adj[i]) || (len(adj[i]) > 0 && !slices.Equal(gotAdj[i], adj[i])) {
				t.Fatalf("node %d neighbours %v, wrote %v", i, gotAdj[i], adj[i])
			}
		}
	})
}
