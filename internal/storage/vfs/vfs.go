// Package vfs implements AlayaDB's vector file system (§7.3): a user-space
// block layout for the vectors of one attention head. Vector data and
// vector-index (graph adjacency) content live in *different block types*,
// each chained into its own linked list, so (i) graph traversal touches
// only index blocks and (ii) vectors can be appended without restructuring
// the file.
//
// The paper builds this on SPDK to bypass the kernel; here ordinary files
// stand in — the layout properties the paper exploits are preserved, the
// kernel bypass is not reproducible in a portable Go library.
//
// File layout:
//
//	bytes 0..63:    superblock (magic, version, geometry, vector count,
//	                chain heads, block count, crc32 of the preceding bytes)
//	blocks 0..n-1:  fixed-size blocks after it, block id at byte offset
//	                64 + id*blockSize, each {header, payload, zero padding}
//
// Block header: 1 byte kind, 3 bytes reserved, 4 bytes payload length,
// 8 bytes next-block id, 4 bytes crc32 of the payload.
//
// Write pattern: blocks are allocated in id order and never freed. A
// multi-row append writes each block it touches once — the partial tail
// block is read and rewritten once (its new rows and its link to the run
// together), and the fresh blocks after it, chained id to id+1, go out in
// one contiguous write. An adjacency chain is likewise one contiguous
// write. The superblock is rewritten after each AppendMatrix and
// WriteAdjacency, and on Close only when an append left it stale, so a
// handle that only reads never writes.
package vfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/vec"
)

// BlockKind distinguishes the two block types of §7.3.
type BlockKind uint8

const (
	// KindData blocks hold packed float32 vectors.
	KindData BlockKind = 1
	// KindIndex blocks hold graph adjacency records.
	KindIndex BlockKind = 2
)

func (k BlockKind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindIndex:
		return "index"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

const (
	magic         = 0x414C5946 // "ALYF"
	version       = 1
	headerSize    = 20 // kind(1) + reserved(3) + length(4) + next(8) + crc(4)
	superSize     = 64
	nilBlock      = int64(-1)
	DefaultBlock  = 4096
	minBlockSize  = 128
	maxVectorDim  = 1 << 14
	maxBlocksFile = 1 << 30
)

// Common errors surfaced by the package.
var (
	ErrCorrupt     = errors.New("vfs: corrupt block")
	ErrBadGeometry = errors.New("vfs: invalid geometry")
	ErrClosed      = errors.New("vfs: file closed")
)

// FS is one vector file: the KV vectors (and optionally the graph
// adjacency) of a single attention head. Safe for concurrent reads;
// writes must be externally serialized.
type FS struct {
	f         *os.File
	path      string
	blockSize int
	dim       int
	perBlock  int // vectors per data block

	nVectors  int64
	dataHead  int64 // first data block
	dataTail  int64 // last data block (append target)
	indexHead int64 // first index block
	nBlocks   int64 // total allocated blocks (excluding superblock)

	closed bool
	dirty  bool // the on-disk superblock lags the fields above
}

// Create initializes a new vector file at path for vectors of the given
// dimensionality. An existing file is truncated.
func Create(path string, blockSize, dim int) (*FS, error) {
	if blockSize < minBlockSize {
		return nil, fmt.Errorf("%w: block size %d < %d", ErrBadGeometry, blockSize, minBlockSize)
	}
	if dim <= 0 || dim > maxVectorDim {
		return nil, fmt.Errorf("%w: dim %d", ErrBadGeometry, dim)
	}
	if blockSize-headerSize < dim*4 {
		return nil, fmt.Errorf("%w: block size %d cannot hold a %d-dim vector", ErrBadGeometry, blockSize, dim)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("vfs: create: %w", err)
	}
	fs := &FS{
		f:         f,
		path:      path,
		blockSize: blockSize,
		dim:       dim,
		perBlock:  (blockSize - headerSize) / (dim * 4),
		dataHead:  nilBlock,
		dataTail:  nilBlock,
		indexHead: nilBlock,
	}
	if err := fs.writeSuper(); err != nil {
		f.Close()
		return nil, err
	}
	return fs, nil
}

// Open opens an existing vector file.
func Open(path string) (*FS, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("vfs: open: %w", err)
	}
	fs := &FS{f: f, path: path}
	if err := fs.readSuper(); err != nil {
		f.Close()
		return nil, err
	}
	return fs, nil
}

// Close flushes the superblock, if a write left it stale, and closes the
// file. A handle that only read leaves the file untouched.
func (fs *FS) Close() error {
	if fs.closed {
		return ErrClosed
	}
	fs.closed = true
	if fs.dirty {
		if err := fs.writeSuper(); err != nil {
			fs.f.Close()
			return err
		}
	}
	return fs.f.Close()
}

// Path returns the file path.
func (fs *FS) Path() string { return fs.path }

// Dim returns the vector dimensionality.
func (fs *FS) Dim() int { return fs.dim }

// BlockSize returns the block size in bytes.
func (fs *FS) BlockSize() int { return fs.blockSize }

// NumVectors returns the number of stored vectors.
func (fs *FS) NumVectors() int { return int(fs.nVectors) }

// VectorsPerBlock returns how many vectors one data block holds.
func (fs *FS) VectorsPerBlock() int { return fs.perBlock }

func (fs *FS) writeSuper() error {
	buf := make([]byte, superSize)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], magic)
	le.PutUint32(buf[4:], version)
	le.PutUint32(buf[8:], uint32(fs.blockSize))
	le.PutUint32(buf[12:], uint32(fs.dim))
	le.PutUint64(buf[16:], uint64(fs.nVectors))
	le.PutUint64(buf[24:], uint64(fs.dataHead))
	le.PutUint64(buf[32:], uint64(fs.dataTail))
	le.PutUint64(buf[40:], uint64(fs.indexHead))
	le.PutUint64(buf[48:], uint64(fs.nBlocks))
	le.PutUint32(buf[56:], crc32.ChecksumIEEE(buf[:56]))
	if _, err := fs.f.WriteAt(buf, 0); err != nil {
		return fmt.Errorf("vfs: write superblock: %w", err)
	}
	fs.dirty = false
	return nil
}

func (fs *FS) readSuper() error {
	buf := make([]byte, superSize)
	if _, err := io.ReadFull(io.NewSectionReader(fs.f, 0, superSize), buf); err != nil {
		return fmt.Errorf("vfs: read superblock: %w", err)
	}
	le := binary.LittleEndian
	if le.Uint32(buf[0:]) != magic {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := le.Uint32(buf[4:]); v != version {
		return fmt.Errorf("vfs: unsupported version %d", v)
	}
	if le.Uint32(buf[56:]) != crc32.ChecksumIEEE(buf[:56]) {
		return fmt.Errorf("%w: superblock checksum mismatch", ErrCorrupt)
	}
	fs.blockSize = int(le.Uint32(buf[8:]))
	fs.dim = int(le.Uint32(buf[12:]))
	fs.nVectors = int64(le.Uint64(buf[16:]))
	fs.dataHead = int64(le.Uint64(buf[24:]))
	fs.dataTail = int64(le.Uint64(buf[32:]))
	fs.indexHead = int64(le.Uint64(buf[40:]))
	fs.nBlocks = int64(le.Uint64(buf[48:]))
	if fs.blockSize < minBlockSize || fs.dim <= 0 || fs.dim > maxVectorDim {
		return fmt.Errorf("%w: geometry from superblock", ErrBadGeometry)
	}
	fs.perBlock = (fs.blockSize - headerSize) / (fs.dim * 4)
	// A crc-valid superblock can still describe an impossible file (written
	// by a different tool, or a deliberately crafted input): geometry whose
	// blocks hold no vector would divide by zero in DataBlockOf, and
	// negative or oversized counts would be used as allocation sizes and
	// loop bounds. Reject them all here, once.
	if fs.perBlock < 1 {
		return fmt.Errorf("%w: block size %d cannot hold a %d-dim vector", ErrBadGeometry, fs.blockSize, fs.dim)
	}
	if fs.nBlocks < 0 || fs.nBlocks > maxBlocksFile {
		return fmt.Errorf("%w: block count %d", ErrBadGeometry, fs.nBlocks)
	}
	if fs.nVectors < 0 || fs.nVectors > fs.nBlocks*int64(fs.perBlock) {
		return fmt.Errorf("%w: %d vectors cannot fit %d blocks", ErrBadGeometry, fs.nVectors, fs.nBlocks)
	}
	for _, head := range []int64{fs.dataHead, fs.dataTail, fs.indexHead} {
		if head != nilBlock && (head < 0 || head >= fs.nBlocks) {
			return fmt.Errorf("%w: chain head %d out of range [0,%d)", ErrCorrupt, head, fs.nBlocks)
		}
	}
	return nil
}

func (fs *FS) blockOffset(id int64) int64 {
	return superSize + id*int64(fs.blockSize)
}

// allocBlocks reserves n contiguous fresh blocks and returns the first id.
func (fs *FS) allocBlocks(n int) (int64, error) {
	if fs.nBlocks+int64(n) > maxBlocksFile {
		return 0, fmt.Errorf("vfs: file full")
	}
	first := fs.nBlocks
	fs.nBlocks += int64(n)
	return first, nil
}

// sealBlock fills in the header of the block laid out in buf (blockSize
// bytes, zeroed past the payload), whose length payload bytes already sit
// at buf[headerSize:].
func sealBlock(buf []byte, kind BlockKind, length int, next int64) {
	le := binary.LittleEndian
	buf[0] = byte(kind)
	le.PutUint32(buf[4:], uint32(length))
	le.PutUint64(buf[8:], uint64(next))
	le.PutUint32(buf[16:], crc32.ChecksumIEEE(buf[headerSize:headerSize+length]))
}

// writeRun allocates len(lens) contiguous blocks for the chain laid out in
// run — block i's lens[i] payload bytes at run[i*blockSize+headerSize:],
// zero-padded — links block i to i+1 and the last to nil, and writes the
// whole chain with one WriteAt. It returns the first block's id.
func (fs *FS) writeRun(kind BlockKind, run []byte, lens []int) (int64, error) {
	first, err := fs.allocBlocks(len(lens))
	if err != nil {
		return 0, err
	}
	for i, n := range lens {
		next := first + int64(i) + 1
		if i == len(lens)-1 {
			next = nilBlock
		}
		sealBlock(run[i*fs.blockSize:], kind, n, next)
	}
	if _, err := fs.f.WriteAt(run, fs.blockOffset(first)); err != nil {
		return 0, fmt.Errorf("vfs: write %v blocks %d..%d: %w", kind, first, first+int64(len(lens))-1, err)
	}
	return first, nil
}

// putFloats encodes v little-endian into dst.
func putFloats(dst []byte, v []float32) {
	le := binary.LittleEndian
	for i, x := range v {
		le.PutUint32(dst[i*4:], math.Float32bits(x))
	}
}

// Block is a decoded block.
type Block struct {
	ID      int64
	Kind    BlockKind
	Payload []byte
	Next    int64
}

// ReadBlock reads and verifies block id.
func (fs *FS) ReadBlock(id int64) (*Block, error) {
	if fs.closed {
		return nil, ErrClosed
	}
	if id < 0 || id >= fs.nBlocks {
		return nil, fmt.Errorf("vfs: block %d out of range [0,%d)", id, fs.nBlocks)
	}
	buf := make([]byte, fs.blockSize)
	if _, err := fs.f.ReadAt(buf, fs.blockOffset(id)); err != nil {
		return nil, fmt.Errorf("vfs: read block %d: %w", id, err)
	}
	le := binary.LittleEndian
	kind := BlockKind(buf[0])
	length := int(le.Uint32(buf[4:]))
	next := int64(le.Uint64(buf[8:]))
	sum := le.Uint32(buf[16:])
	if length > fs.blockSize-headerSize {
		return nil, fmt.Errorf("%w: block %d length %d", ErrCorrupt, id, length)
	}
	payload := buf[headerSize : headerSize+length]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: block %d checksum mismatch", ErrCorrupt, id)
	}
	return &Block{ID: id, Kind: kind, Payload: payload, Next: next}, nil
}

// AppendVector appends one vector and returns its id: a one-row
// AppendMatrix that leaves the superblock to Close.
func (fs *FS) AppendVector(v []float32) (int, error) {
	if fs.closed {
		return 0, ErrClosed
	}
	if len(v) != fs.dim {
		return 0, fmt.Errorf("vfs: vector dim %d != file dim %d", len(v), fs.dim)
	}
	id := int(fs.nVectors)
	if err := fs.appendRows(v); err != nil {
		return 0, err
	}
	return id, nil
}

// AppendMatrix appends every row of m and persists the superblock. Each
// block the rows touch is written once: a partial tail block is read,
// filled and relinked in one rewrite, and the fresh blocks after it go out
// as one contiguous run.
func (fs *FS) AppendMatrix(m *vec.Matrix) error {
	if fs.closed {
		return ErrClosed
	}
	if m.Rows() > 0 && m.Cols() != fs.dim {
		return fmt.Errorf("vfs: vector dim %d != file dim %d", m.Cols(), fs.dim)
	}
	if err := fs.appendRows(m.Data()); err != nil {
		return err
	}
	return fs.writeSuper()
}

// appendRows appends the row-major rows in data (a multiple of Dim
// floats). The rows first fill the free slots of the tail data block; the
// rest go into fresh blocks allocated contiguously, each chained to the
// next, written with one WriteAt. The old tail is then rewritten once, with
// its new rows and its link to the run, so the chain never points at a
// block that is not on disk yet.
func (fs *FS) appendRows(data []float32) error {
	n := len(data) / fs.dim
	if n == 0 {
		return nil
	}
	fill := 0 // rows that go into the partial tail block
	if slot := int(fs.nVectors % int64(fs.perBlock)); slot != 0 {
		fill = min(fs.perBlock-slot, n)
	}
	fresh := (n - fill + fs.perBlock - 1) / fs.perBlock // blocks after the tail

	// The old tail changes when it takes rows or gains a successor.
	var tail *Block
	tailLen := 0
	if fill > 0 || (fresh > 0 && fs.dataTail != nilBlock) {
		blk, err := fs.ReadBlock(fs.dataTail)
		if err != nil {
			return err
		}
		tail, tailLen = blk, len(blk.Payload)+fill*fs.dim*4
		if tailLen > fs.blockSize-headerSize {
			return fmt.Errorf("vfs: payload %d exceeds block capacity %d", tailLen, fs.blockSize-headerSize)
		}
	}

	first := nilBlock
	if fresh > 0 {
		run := make([]byte, fresh*fs.blockSize)
		lens := make([]int, fresh)
		rows := data[fill*fs.dim:]
		for b := range lens {
			k := min(len(rows), fs.perBlock*fs.dim)
			putFloats(run[b*fs.blockSize+headerSize:], rows[:k])
			rows, lens[b] = rows[k:], k*4
		}
		var err error
		if first, err = fs.writeRun(KindData, run, lens); err != nil {
			return err
		}
	}

	if tail != nil {
		next := tail.Next
		if fresh > 0 {
			next = first
		}
		buf := make([]byte, fs.blockSize)
		copy(buf[headerSize:], tail.Payload)
		putFloats(buf[headerSize+len(tail.Payload):], data[:fill*fs.dim])
		sealBlock(buf, KindData, tailLen, next)
		if _, err := fs.f.WriteAt(buf, fs.blockOffset(tail.ID)); err != nil {
			return fmt.Errorf("vfs: write block %d: %w", tail.ID, err)
		}
	}

	if fresh > 0 {
		if fs.dataHead == nilBlock {
			fs.dataHead = first
		}
		fs.dataTail = first + int64(fresh) - 1
	}
	fs.nVectors += int64(n)
	fs.dirty = true
	return nil
}

// DataBlockOf returns the chain position (0-based) and slot of vector id.
func (fs *FS) DataBlockOf(id int) (chainPos, slot int) {
	return id / fs.perBlock, id % fs.perBlock
}

// dataBlockID walks the chain to the physical block at chain position pos.
// Sequential appends make chains physically ordered, so the common case is
// one hop; corrupted chains are detected by the walk bound.
func (fs *FS) dataBlockID(pos int) (int64, error) {
	id := fs.dataHead
	for hop := 0; hop < pos; hop++ {
		if id == nilBlock {
			return 0, fmt.Errorf("%w: data chain ends before position %d", ErrCorrupt, pos)
		}
		blk, err := fs.ReadBlock(id)
		if err != nil {
			return 0, err
		}
		id = blk.Next
	}
	if id == nilBlock {
		return 0, fmt.Errorf("%w: data chain ends at position %d", ErrCorrupt, pos)
	}
	return id, nil
}

// ReadVector reads vector id into buf (len must equal Dim).
func (fs *FS) ReadVector(id int, buf []float32) error {
	if fs.closed {
		return ErrClosed
	}
	if id < 0 || id >= int(fs.nVectors) {
		return fmt.Errorf("vfs: vector %d out of range [0,%d)", id, fs.nVectors)
	}
	if len(buf) != fs.dim {
		return fmt.Errorf("vfs: buffer dim %d != %d", len(buf), fs.dim)
	}
	pos, slot := fs.DataBlockOf(id)
	blockID, err := fs.dataBlockID(pos)
	if err != nil {
		return err
	}
	blk, err := fs.ReadBlock(blockID)
	if err != nil {
		return err
	}
	return DecodeVector(blk.Payload, slot, buf)
}

// DecodeVector extracts the vector at the given slot from a data block
// payload.
func DecodeVector(payload []byte, slot int, buf []float32) error {
	off := slot * len(buf) * 4
	if off+len(buf)*4 > len(payload) {
		return fmt.Errorf("%w: slot %d beyond payload", ErrCorrupt, slot)
	}
	le := binary.LittleEndian
	for i := range buf {
		buf[i] = math.Float32frombits(le.Uint32(payload[off+i*4:]))
	}
	return nil
}

// DataBlockIDs resolves the data chain once, returning the physical block
// id at each chain position. Callers that read vectors repeatedly (the
// storage.VectorStore tier) use this to avoid re-walking the chain.
func (fs *FS) DataBlockIDs() ([]int64, error) {
	if fs.closed {
		return nil, ErrClosed
	}
	var out []int64
	for id := fs.dataHead; id != nilBlock; {
		out = append(out, id)
		blk, err := fs.ReadBlock(id)
		if err != nil {
			return nil, err
		}
		if blk.Kind != KindData {
			return nil, fmt.Errorf("%w: block %d in data chain has kind %v", ErrCorrupt, id, blk.Kind)
		}
		id = blk.Next
		if len(out) > int(fs.nBlocks) {
			return nil, fmt.Errorf("%w: data chain cycle detected", ErrCorrupt)
		}
	}
	return out, nil
}

// ReadAll loads every vector into a matrix, e.g. to rebuild an in-memory
// index after restart.
func (fs *FS) ReadAll() (*vec.Matrix, error) {
	m := vec.NewMatrix(int(fs.nVectors), fs.dim)
	row := 0
	id := fs.dataHead
	for id != nilBlock && row < int(fs.nVectors) {
		blk, err := fs.ReadBlock(id)
		if err != nil {
			return nil, err
		}
		if blk.Kind != KindData {
			return nil, fmt.Errorf("%w: block %d in data chain has kind %v", ErrCorrupt, id, blk.Kind)
		}
		inBlock := len(blk.Payload) / (fs.dim * 4)
		for s := 0; s < inBlock && row < int(fs.nVectors); s++ {
			if err := DecodeVector(blk.Payload, s, m.Row(row)); err != nil {
				return nil, err
			}
			row++
		}
		id = blk.Next
	}
	if row != int(fs.nVectors) {
		return nil, fmt.Errorf("%w: read %d of %d vectors", ErrCorrupt, row, fs.nVectors)
	}
	return m, nil
}

// WriteAdjacency stores a graph adjacency structure in a chain of index
// blocks, replacing any previous adjacency. Record format per node:
// degree int32, then degree int32 neighbour ids, nodes in id order.
func (fs *FS) WriteAdjacency(adj [][]int32) error {
	if fs.closed {
		return ErrClosed
	}
	le := binary.LittleEndian
	capacity := fs.blockSize - headerSize

	// Records never straddle blocks, and the chain's blocks are contiguous:
	// lay the records straight into the run that one WriteAt then writes.
	var run []byte // whole blocks, zero-padded
	var lens []int // payload bytes in each block of run
	reserve := func(n int) []byte {
		if len(lens) == 0 || lens[len(lens)-1]+n > capacity {
			run = append(run, make([]byte, fs.blockSize)...)
			lens = append(lens, 0)
		}
		b := len(lens) - 1
		off := b*fs.blockSize + headerSize + lens[b]
		lens[b] += n
		return run[off : off+n]
	}
	// Header record: node count.
	le.PutUint32(reserve(4), uint32(len(adj)))
	for _, nbrs := range adj {
		if 4+4*len(nbrs) > capacity {
			return fmt.Errorf("vfs: adjacency record (%d neighbours) exceeds block capacity", len(nbrs))
		}
		rec := reserve(4 + 4*len(nbrs))
		le.PutUint32(rec, uint32(len(nbrs)))
		for i, v := range nbrs {
			le.PutUint32(rec[4+i*4:], uint32(v))
		}
	}

	first, err := fs.writeRun(KindIndex, run, lens)
	if err != nil {
		return err
	}
	fs.indexHead = first
	fs.dirty = true
	return fs.writeSuper()
}

// ReadAdjacency loads the adjacency chain written by WriteAdjacency, or
// nil if none was stored.
func (fs *FS) ReadAdjacency() ([][]int32, error) {
	if fs.closed {
		return nil, ErrClosed
	}
	if fs.indexHead == nilBlock {
		return nil, nil
	}
	le := binary.LittleEndian
	// Concatenate the chain payloads, then decode records. The chain walk
	// is bounded by the file's block count: a corrupt next pointer forming
	// a cycle must surface as an error, not an unbounded loop.
	var payload []byte
	hops := int64(0)
	for id := fs.indexHead; id != nilBlock; {
		if hops++; hops > fs.nBlocks {
			return nil, fmt.Errorf("%w: index chain cycle detected", ErrCorrupt)
		}
		blk, err := fs.ReadBlock(id)
		if err != nil {
			return nil, err
		}
		if blk.Kind != KindIndex {
			return nil, fmt.Errorf("%w: block %d in index chain has kind %v", ErrCorrupt, id, blk.Kind)
		}
		payload = append(payload, blk.Payload...)
		id = blk.Next
	}
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: adjacency payload too short", ErrCorrupt)
	}
	n := int(le.Uint32(payload))
	// Every node record is at least 4 bytes (its degree); a node count the
	// payload cannot possibly hold would otherwise size the adjacency
	// allocation from attacker-controlled bytes.
	if n < 0 || n > (len(payload)-4)/4 {
		return nil, fmt.Errorf("%w: adjacency claims %d nodes in %d payload bytes", ErrCorrupt, n, len(payload))
	}
	off := 4
	adj := make([][]int32, n)
	for i := 0; i < n; i++ {
		if off+4 > len(payload) {
			return nil, fmt.Errorf("%w: adjacency truncated at node %d", ErrCorrupt, i)
		}
		deg := int(le.Uint32(payload[off:]))
		off += 4
		if deg < 0 || off+4*deg > len(payload) {
			return nil, fmt.Errorf("%w: node %d degree %d overruns payload", ErrCorrupt, i, deg)
		}
		nbrs := make([]int32, deg)
		for j := 0; j < deg; j++ {
			nbrs[j] = int32(le.Uint32(payload[off+4*j:]))
		}
		off += 4 * deg
		adj[i] = nbrs
	}
	return adj, nil
}

// Stats summarises the file for tooling.
type Stats struct {
	Path        string
	BlockSize   int
	Dim         int
	Vectors     int
	Blocks      int64
	HasIndex    bool
	SizeOnDisk  int64
	VectorBytes int64
}

// Stat returns file statistics.
func (fs *FS) Stat() (Stats, error) {
	info, err := fs.f.Stat()
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Path:        fs.path,
		BlockSize:   fs.blockSize,
		Dim:         fs.dim,
		Vectors:     int(fs.nVectors),
		Blocks:      fs.nBlocks,
		HasIndex:    fs.indexHead != nilBlock,
		SizeOnDisk:  info.Size(),
		VectorBytes: fs.nVectors * int64(fs.dim) * 4,
	}, nil
}
