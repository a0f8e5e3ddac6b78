// Package storage ties the vector file system and the buffer manager into
// a disk-resident vector tier (§7.3): vector data lives in vfs block files
// and is served through the purpose-built buffer manager, so contexts
// larger than CPU memory can still be searched. Index (graph adjacency)
// blocks are cached preferentially over data blocks, matching the paper's
// access patterns: adjacency is touched by every traversal, vector
// payloads mostly once per retrieval.
package storage

import (
	"fmt"
	"sync"

	"repro/internal/storage/buffer"
	"repro/internal/storage/vfs"
)

// VectorStore serves one head's vectors from a vfs file through a buffer
// manager. Safe for concurrent reads.
type VectorStore struct {
	fs     *vfs.FS
	bm     *buffer.Manager
	blocks []int64 // chain position -> physical block id
	dim    int
	per    int // vectors per block
	n      int
}

// NewVectorStore wraps an open vfs file. The block chain is resolved once;
// subsequent reads are O(1) block lookups through the buffer manager.
func NewVectorStore(fs *vfs.FS, bm *buffer.Manager) (*VectorStore, error) {
	ids, err := fs.DataBlockIDs()
	if err != nil {
		return nil, err
	}
	return &VectorStore{
		fs:     fs,
		bm:     bm,
		blocks: ids,
		dim:    fs.Dim(),
		per:    fs.VectorsPerBlock(),
		n:      fs.NumVectors(),
	}, nil
}

// Len returns the number of stored vectors.
func (s *VectorStore) Len() int { return s.n }

// Dim returns the vector dimensionality.
func (s *VectorStore) Dim() int { return s.dim }

// Vector reads vector id into buf through the buffer manager.
func (s *VectorStore) Vector(id int, buf []float32) error {
	if id < 0 || id >= s.n {
		return fmt.Errorf("storage: vector %d out of range [0,%d)", id, s.n)
	}
	if len(buf) != s.dim {
		return fmt.Errorf("storage: buffer dim %d != %d", len(buf), s.dim)
	}
	pos, slot := id/s.per, id%s.per
	key := buffer.Key{File: s.fs.Path(), Block: s.blocks[pos]}
	payload, err := s.bm.Get(key, buffer.Data)
	if err != nil {
		return err
	}
	defer s.bm.Release(key)
	return vfs.DecodeVector(payload, slot, buf)
}

// Fetcher returns a buffer.Fetcher that reads blocks from any of the given
// vfs files, keyed by path, so one buffer manager can serve many head
// files.
func Fetcher(files map[string]*vfs.FS) buffer.Fetcher {
	var mu sync.Mutex
	return func(k buffer.Key) ([]byte, error) {
		mu.Lock()
		fs, ok := files[k.File]
		mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("storage: no open file %q", k.File)
		}
		return fetchBlock(fs, k.Block)
	}
}

func fetchBlock(fs *vfs.FS, block int64) ([]byte, error) {
	blk, err := fs.ReadBlock(block)
	if err != nil {
		return nil, err
	}
	// Copy: the buffer manager owns cached payloads.
	out := make([]byte, len(blk.Payload))
	copy(out, blk.Payload)
	return out, nil
}

// DiskGraph is a graph index whose adjacency sits in memory while vector
// payloads are read through a VectorStore — the deployment §7.3 targets:
// the graph structure is hot, the vectors are demand-paged. It satisfies
// internal/query.Graph, so DIPRS runs over it unchanged.
type DiskGraph struct {
	adj   [][]int32
	entry int32
	store *VectorStore

	mu      sync.Mutex
	lastErr error
}

// NewDiskGraph assembles a disk-backed graph. adj must address vectors in
// the store's range.
func NewDiskGraph(adj [][]int32, entry int32, store *VectorStore) (*DiskGraph, error) {
	if len(adj) != store.Len() {
		return nil, fmt.Errorf("storage: adjacency has %d nodes for %d vectors", len(adj), store.Len())
	}
	if len(adj) > 0 && (entry < 0 || int(entry) >= len(adj)) {
		return nil, fmt.Errorf("storage: entry %d out of range", entry)
	}
	return &DiskGraph{adj: adj, entry: entry, store: store}, nil
}

// Len returns the number of nodes.
func (g *DiskGraph) Len() int { return len(g.adj) }

// Entry returns the search entry point.
func (g *DiskGraph) Entry() int32 { return g.entry }

// Neighbors returns node i's out-neighbours.
func (g *DiskGraph) Neighbors(i int32) []int32 { return g.adj[i] }

// Vector reads node i's vector through the buffer manager. A read failure
// surfaces as a zero vector — the traversal deprioritizes it instead of
// crashing mid-query — and is recorded for the caller to inspect via Err.
func (g *DiskGraph) Vector(i int32) []float32 {
	buf := make([]float32, g.store.Dim())
	if err := g.store.Vector(int(i), buf); err != nil {
		g.mu.Lock()
		g.lastErr = err
		g.mu.Unlock()
		for j := range buf {
			buf[j] = 0
		}
	}
	return buf
}

// Err returns the last vector read error, if any.
func (g *DiskGraph) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.lastErr
}
