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
// A file is written with one write and read in one pass, straight into the
// rows' floats. The header's sizes must add up to the file's length before
// anything is allocated, and an accepted adjacency has one record per row
// with every neighbour id in [0, rows), so a crafted file fails here, not in
// the graph rebuilt from it.
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
	"io"
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
	maxCols    = 1 << 16  // a zero-row header may claim any width; keep int(cols) sane on 32-bit
	chunkSize  = 16 << 10 // decode's scratch buffer for the payload
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

// decode reads one record of size bytes from r. It returns the rows and
// the adjacency, which is nil when the record holds none. The header's
// sizes must add up to size before anything is allocated; then the
// payload is decoded straight into the matrix's floats, chunk by chunk,
// through one scratch buffer that the adjacency section reuses, so a
// reload allocates about the rows it restores.
func decode(r io.Reader, size int64) (*vec.Matrix, [][]int32, error) {
	var hdr [headerSize]byte
	if size < headerSize+crcSize {
		return nil, nil, fmt.Errorf("%w: %d bytes is shorter than a header", ErrCorrupt, size)
	}
	if err := readFull(r, hdr[:]); err != nil {
		return nil, nil, err
	}
	if m := le.Uint32(hdr[0:]); m != magic {
		return nil, nil, fmt.Errorf("%w: bad magic %#08x", ErrCorrupt, m)
	}
	if v := le.Uint32(hdr[4:]); v != version {
		return nil, nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	if le.Uint32(hdr[20:]) != crc32.ChecksumIEEE(hdr[:20]) {
		return nil, nil, fmt.Errorf("%w: header checksum mismatch", ErrCorrupt)
	}
	rows, cols, adjLen := uint64(le.Uint32(hdr[8:])), uint64(le.Uint32(hdr[12:])), uint64(le.Uint32(hdr[16:]))
	if cols == 0 || cols > maxCols {
		return nil, nil, fmt.Errorf("%w: %d columns", ErrCorrupt, cols)
	}
	if want := headerSize + 4*rows*cols + adjLen + crcSize; want != uint64(size) {
		return nil, nil, fmt.Errorf("%w: header describes %d bytes, file holds %d", ErrCorrupt, want, size)
	}

	data := make([]float32, rows*cols)
	tail := int(adjLen) + crcSize
	buf := make([]byte, max(tail, min(4*len(data), chunkSize)))
	var crc uint32
	for off := 0; off < len(data); {
		chunk := buf[:min(len(buf)/4, len(data)-off)*4]
		if err := readFull(r, chunk); err != nil {
			return nil, nil, err
		}
		crc = crc32.Update(crc, crc32.IEEETable, chunk)
		for i := 0; i < len(chunk); i += 4 {
			data[off] = math.Float32frombits(le.Uint32(chunk[i:]))
			off++
		}
	}
	sec := buf[:tail]
	if err := readFull(r, sec); err != nil {
		return nil, nil, err
	}
	if crc32.Update(crc, crc32.IEEETable, sec[:adjLen]) != le.Uint32(sec[adjLen:]) {
		return nil, nil, fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
	}
	m := vec.MatrixFromData(int(cols), data)
	if adjLen == 0 {
		return m, nil, nil
	}
	adj, err := decodeAdjacency(sec[:adjLen], int(rows))
	if err != nil {
		return nil, nil, err
	}
	return m, adj, nil
}

// readFull fills b from r; a record that ends early is corrupt.
func readFull(r io.Reader, b []byte) error {
	_, err := io.ReadFull(r, b)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: record ends early", ErrCorrupt)
	}
	return err
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
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	m, adj, err := decode(f, fi.Size())
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, adj, nil
}
