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

// ScanBlocks streams every vector in storage order: emit is called with
// (vector id, vector contents); the slice is only valid during the call.
// The sequential block access pattern is what makes the disk-backed flat
// scan competitive at large k (Table 4).
func (s *VectorStore) ScanBlocks(emit func(id int, v []float32) error) error {
	buf := make([]float32, s.dim)
	id := 0
	for _, blockID := range s.blocks {
		key := buffer.Key{File: s.fs.Path(), Block: blockID}
		payload, err := s.bm.Get(key, buffer.Data)
		if err != nil {
			return err
		}
		inBlock := len(payload) / (s.dim * 4)
		for slot := 0; slot < inBlock && id < s.n; slot++ {
			if err := vfs.DecodeVector(payload, slot, buf); err != nil {
				s.bm.Release(key)
				return err
			}
			if err := emit(id, buf); err != nil {
				s.bm.Release(key)
				return err
			}
			id++
		}
		if err := s.bm.Release(key); err != nil {
			return err
		}
	}
	return nil
}

// Fetcher returns a buffer.Fetcher that reads blocks from any of the given
// vfs files, keyed by path. Used to share one buffer manager across many
// head files, as the DB does.
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

// FileSet is a mutable registry of open vfs files serving one buffer
// manager's fetches. The spill tier registers a context's head files for
// the duration of a reload and removes them afterwards. Registrations
// stack per path: concurrent readers of the same file each Add their own
// handle and Remove it when done, and fetches are served through any
// handle still registered — so one reader finishing (and closing its
// handle) never breaks another mid-scan. Cached blocks keyed by a fully removed path
// survive in the manager (hits need no fetch) but a post-removal miss
// surfaces as an error rather than reading a stale descriptor. Safe for
// concurrent use.
type FileSet struct {
	mu    sync.Mutex
	files map[string][]*vfs.FS
}

// NewFileSet returns an empty file set.
func NewFileSet() *FileSet {
	return &FileSet{files: make(map[string][]*vfs.FS)}
}

// Add registers an open handle under its path.
func (s *FileSet) Add(fs *vfs.FS) {
	s.mu.Lock()
	s.files[fs.Path()] = append(s.files[fs.Path()], fs)
	s.mu.Unlock()
}

// Remove deregisters one handle; its path stays fetchable while other
// readers' handles remain. The caller closes its own handle after Remove.
func (s *FileSet) Remove(fs *vfs.FS) {
	s.mu.Lock()
	path := fs.Path()
	handles := s.files[path]
	for i, h := range handles {
		if h == fs {
			handles = append(handles[:i], handles[i+1:]...)
			break
		}
	}
	if len(handles) == 0 {
		delete(s.files, path)
	} else {
		s.files[path] = handles
	}
	s.mu.Unlock()
}

// Fetcher returns the buffer.Fetcher view of the set. The set's mutex is
// held across the block read so a reader cannot Remove (and then close)
// the serving handle mid-fetch; the buffer manager serializes fetches
// under its own lock anyway, so this adds no contention in practice.
func (s *FileSet) Fetcher() buffer.Fetcher {
	return func(k buffer.Key) ([]byte, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		handles := s.files[k.File]
		if len(handles) == 0 {
			return nil, fmt.Errorf("storage: no open file %q", k.File)
		}
		return fetchBlock(handles[0], k.Block)
	}
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
