// Package kvfile is the on-disk record of one attention head's key or value
// rows. A saved or spilled context writes one keys file and one values file
// per (layer, kv head); each file is a single flat record:
//
//	header     magic "ALKV", version, rows, cols, adjacency bytes, and a
//	           crc32 of those five fields (uint32 each, 24 bytes in all)
//	payload    rows × cols float32 words, row-major, little-endian
//	adjacency  keys files with a graph only: the node count, then per node
//	           its degree and its neighbour ids (uint32 each)
//	trailer    crc32 of the payload and the adjacency
//
// A file is written with one write and read with one os.ReadFile. The
// header's sizes must add up to the file's length before anything is
// allocated, and an accepted adjacency has one record per row with every
// neighbour id in [0, rows), so a crafted file fails here, not in the graph
// rebuilt from it.
//
// The paper's vector file system (§7.3) chains data blocks and index blocks
// separately, so that a disk-resident graph traversal pages only index
// blocks and vectors append without rewriting the file. Nothing here
// searches a graph on disk or appends to a saved file: a context is written
// once and read back whole, so one record per file is all it needs.
package kvfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"slices"

	"repro/internal/vec"
)

const (
	magic      = 0x564B4C41 // "ALKV" little-endian
	version    = 1
	headerSize = 24
	crcSize    = 4
	maxCols    = 1 << 16 // a zero-row header may claim any width; keep int(cols) sane on 32-bit
)

// ErrCorrupt reports a file that is not a well-formed record.
var ErrCorrupt = errors.New("kvfile: corrupt file")

var le = binary.LittleEndian

// Append appends the record of m's rows, and of adj when it is non-nil, to
// dst and returns the extended slice. adj is written as given; ReadFile
// accepts it back only with one record per row and every id in [0, rows).
func Append(dst []byte, m *vec.Matrix, adj [][]int32) []byte {
	adjLen := 0
	if adj != nil {
		adjLen = 4 + 4*len(adj)
		for _, nbrs := range adj {
			adjLen += 4 * len(nbrs)
		}
	}
	data := m.Data()
	start := len(dst)
	total := headerSize + 4*len(data) + adjLen + crcSize
	dst = slices.Grow(dst, total)[:start+total]
	rec := dst[start:]

	le.PutUint32(rec[0:], magic)
	le.PutUint32(rec[4:], version)
	le.PutUint32(rec[8:], uint32(m.Rows()))
	le.PutUint32(rec[12:], uint32(m.Cols()))
	le.PutUint32(rec[16:], uint32(adjLen))
	le.PutUint32(rec[20:], crc32.ChecksumIEEE(rec[:20]))

	body := rec[headerSize : total-crcSize]
	for i, x := range data {
		le.PutUint32(body[4*i:], math.Float32bits(x))
	}
	if adj != nil {
		off := 4 * len(data)
		le.PutUint32(body[off:], uint32(len(adj)))
		off += 4
		for _, nbrs := range adj {
			le.PutUint32(body[off:], uint32(len(nbrs)))
			off += 4
			for _, v := range nbrs {
				le.PutUint32(body[off:], uint32(v))
				off += 4
			}
		}
	}
	le.PutUint32(rec[total-crcSize:], crc32.ChecksumIEEE(body))
	return dst
}

// decode parses one record. It returns the rows and the adjacency, which is
// nil when the record holds none. The matrix and the adjacency own fresh
// storage; neither aliases b.
func decode(b []byte) (*vec.Matrix, [][]int32, error) {
	if len(b) < headerSize+crcSize {
		return nil, nil, fmt.Errorf("%w: %d bytes is shorter than a header", ErrCorrupt, len(b))
	}
	if m := le.Uint32(b[0:]); m != magic {
		return nil, nil, fmt.Errorf("%w: bad magic %#08x", ErrCorrupt, m)
	}
	if v := le.Uint32(b[4:]); v != version {
		return nil, nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	if le.Uint32(b[20:]) != crc32.ChecksumIEEE(b[:20]) {
		return nil, nil, fmt.Errorf("%w: header checksum mismatch", ErrCorrupt)
	}
	rows, cols, adjLen := uint64(le.Uint32(b[8:])), uint64(le.Uint32(b[12:])), uint64(le.Uint32(b[16:]))
	if cols == 0 || cols > maxCols {
		return nil, nil, fmt.Errorf("%w: %d columns", ErrCorrupt, cols)
	}
	if rows*cols > uint64(len(b))/4 {
		return nil, nil, fmt.Errorf("%w: %d × %d rows overrun a %d-byte file", ErrCorrupt, rows, cols, len(b))
	}
	if want := headerSize + 4*rows*cols + adjLen + crcSize; want != uint64(len(b)) {
		return nil, nil, fmt.Errorf("%w: header describes %d bytes, file holds %d", ErrCorrupt, want, len(b))
	}
	body := b[headerSize : len(b)-crcSize]
	if le.Uint32(b[len(b)-crcSize:]) != crc32.ChecksumIEEE(body) {
		return nil, nil, fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
	}

	payload := body[:4*rows*cols]
	data := make([]float32, rows*cols)
	for i := range data {
		data[i] = math.Float32frombits(le.Uint32(payload[4*i:]))
	}
	m := vec.MatrixFromData(int(cols), data)
	if adjLen == 0 {
		return m, nil, nil
	}
	adj, err := decodeAdjacency(body[len(payload):], int(rows))
	if err != nil {
		return nil, nil, err
	}
	return m, adj, nil
}

// decodeAdjacency parses an adjacency section of a rows-row record. All
// neighbour ids share one allocation, sized from the section length; each
// node's list is capped so that growing one cannot overwrite the next.
func decodeAdjacency(sec []byte, rows int) ([][]int32, error) {
	if len(sec) < 4 || len(sec)%4 != 0 {
		return nil, fmt.Errorf("%w: adjacency section of %d bytes", ErrCorrupt, len(sec))
	}
	words := len(sec)/4 - 1
	if n := le.Uint32(sec); uint64(n) != uint64(rows) {
		return nil, fmt.Errorf("%w: adjacency has %d nodes for %d rows", ErrCorrupt, n, rows)
	}
	if words < rows {
		return nil, fmt.Errorf("%w: adjacency of %d words cannot hold %d degrees", ErrCorrupt, words, rows)
	}
	ids := make([]int32, words-rows)
	adj := make([][]int32, rows)
	off, next := 4, 0
	for i := range adj {
		deg := uint64(le.Uint32(sec[off:]))
		off += 4
		if deg > uint64(len(ids)-next) {
			return nil, fmt.Errorf("%w: node %d degree %d overruns the adjacency", ErrCorrupt, i, deg)
		}
		nbrs := ids[next : next+int(deg) : next+int(deg)]
		for j := range nbrs {
			v := le.Uint32(sec[off:])
			if uint64(v) >= uint64(rows) {
				return nil, fmt.Errorf("%w: node %d neighbour %d out of range for %d rows", ErrCorrupt, i, v, rows)
			}
			nbrs[j] = int32(v)
			off += 4
		}
		adj[i], next = nbrs, next+int(deg)
	}
	if next != len(ids) {
		return nil, fmt.Errorf("%w: %d ids after the last adjacency record", ErrCorrupt, len(ids)-next)
	}
	return adj, nil
}

// ReadFile reads and decodes the record at path.
func ReadFile(path string) (*vec.Matrix, [][]int32, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	m, adj, err := decode(b)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, adj, nil
}
