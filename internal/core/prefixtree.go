package core

// prefixTree indexes documents for longest-common-prefix lookup in
// O(prefix/chunk) hash hops instead of the O(docs × length) linear scan
// CreateSession used to run under the registry lock. Documents are keyed
// by (seed, chunk-hash) chains: a node at depth d stands for one specific
// sequence of d full token chunks, its children are keyed by the FNV-1a
// hash of the next chunk, and a document terminates at the node of its
// last *full* chunk (its final partial chunk, if any, lives in the
// entry). Hashes only steer the descent — the winning candidate is always
// re-verified token by token with commonPrefix, so a hash collision can
// at worst make the answer suboptimal, never wrong.
//
// The tree has its own lock: both the resident registry and the spill
// catalog maintain one, and CreateSession's lookup runs without touching
// db.mu at all.

import (
	"hash/fnv"
	"math"
	"sync"

	"repro/internal/model"
)

// defaultPrefixChunk is the chunk width, in tokens, of the prefix trees
// that index resident and spilled documents for CreateSession's
// longest-common-prefix lookup.
const defaultPrefixChunk = 64

type ptEntry[V comparable] struct {
	doc *model.Document
	val V
}

type ptNode[V comparable] struct {
	children map[uint64]*ptNode[V]
	// entries holds documents whose full-chunk path ends at this node
	// (their remaining tokens, fewer than one chunk, differ only past the
	// hashed prefix).
	entries []ptEntry[V]
	// rep is an arbitrary document of the subtree, used to resolve
	// within-chunk partial matches without visiting every descendant.
	rep  ptEntry[V]
	size int // documents in the subtree
}

type prefixTree[V comparable] struct {
	mu    sync.RWMutex
	chunk int
	roots map[uint64]*ptNode[V] // per document seed
}

func newPrefixTree[V comparable](chunk int) *prefixTree[V] {
	return &prefixTree[V]{chunk: chunk, roots: make(map[uint64]*ptNode[V])}
}

// chunkHash fingerprints tokens [i*chunk, (i+1)*chunk) of doc.
func (t *prefixTree[V]) chunkHash(doc *model.Document, i int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for b := 0; b < 8; b++ {
			buf[b] = byte(v >> (8 * b))
		}
		h.Write(buf[:])
	}
	for _, tok := range doc.Tokens[i*t.chunk : (i+1)*t.chunk] {
		put(uint64(int64(tok.Topic)))
		put(uint64(int64(tok.Payload)))
		put(uint64(math.Float32bits(tok.Salience)))
	}
	return h.Sum64()
}

// Insert adds (doc, val) to the tree. The document must not be mutated
// while indexed (stored contexts and spill entries are immutable).
func (t *prefixTree[V]) Insert(doc *model.Document, val V) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.roots[doc.Seed]
	if n == nil {
		n = &ptNode[V]{}
		t.roots[doc.Seed] = n
	}
	e := ptEntry[V]{doc: doc, val: val}
	depth := doc.Len() / t.chunk
	for d := 0; d < depth; d++ {
		if n.rep.doc == nil {
			n.rep = e
		}
		n.size++
		h := t.chunkHash(doc, d)
		if n.children == nil {
			n.children = make(map[uint64]*ptNode[V])
		}
		child := n.children[h]
		if child == nil {
			child = &ptNode[V]{}
			n.children[h] = child
		}
		n = child
	}
	if n.rep.doc == nil {
		n.rep = e
	}
	n.size++
	n.entries = append(n.entries, e)
}

// Remove deletes the entry whose value equals val, pruning emptied nodes
// and repairing displaced subtree representatives. Removing a value that
// was never inserted is a no-op.
func (t *prefixTree[V]) Remove(doc *model.Document, val V) {
	t.mu.Lock()
	defer t.mu.Unlock()
	root := t.roots[doc.Seed]
	if root == nil {
		return
	}
	depth := doc.Len() / t.chunk
	path := make([]*ptNode[V], 0, depth+1)
	hashes := make([]uint64, 0, depth)
	n := root
	path = append(path, n)
	for d := 0; d < depth; d++ {
		h := t.chunkHash(doc, d)
		child := n.children[h]
		if child == nil {
			return
		}
		hashes = append(hashes, h)
		n = child
		path = append(path, n)
	}
	found := -1
	for i, e := range n.entries {
		if e.val == val {
			found = i
			break
		}
	}
	if found < 0 {
		return
	}
	n.entries = append(n.entries[:found], n.entries[found+1:]...)
	// Walk back up: shrink sizes, prune empty subtrees, re-elect reps.
	for i := len(path) - 1; i >= 0; i-- {
		nd := path[i]
		nd.size--
		if i > 0 && nd.size == 0 {
			delete(path[i-1].children, hashes[i-1])
			continue
		}
		if nd.rep.val == val {
			nd.rep = t.anyEntry(nd)
		}
	}
	if root.size == 0 {
		delete(t.roots, doc.Seed)
	}
}

// anyEntry returns some entry of the subtree (zero entry if none, which
// only happens transiently for a node about to be pruned).
func (t *prefixTree[V]) anyEntry(n *ptNode[V]) ptEntry[V] {
	for n != nil {
		if len(n.entries) > 0 {
			return n.entries[0]
		}
		var next *ptNode[V]
		for _, c := range n.children {
			if c.size > 0 {
				next = c
				break
			}
		}
		n = next
	}
	return ptEntry[V]{}
}

// Lookup returns the indexed value with the longest common prefix with
// doc and that prefix's length, or (zero, 0) when nothing shares a
// prefix. The descent follows doc's chunk hashes as deep as the tree
// goes; candidates are the entries terminating along that path, the
// deepest node's representative, and one representative per divergent
// child of the deepest node (covering partial matches inside the first
// unmatched chunk). Every candidate is verified with commonPrefix, so
// the result is exact; absent hash collisions it is also optimal.
func (t *prefixTree[V]) Lookup(doc *model.Document) (V, int) {
	var bestVal V
	bestLen := 0
	consider := func(e ptEntry[V]) {
		if e.doc == nil {
			return
		}
		if l := commonPrefix(e.doc, doc); l > bestLen {
			bestVal, bestLen = e.val, l
		}
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.roots[doc.Seed]
	if n == nil {
		return bestVal, 0
	}
	depth := doc.Len() / t.chunk
	d := 0
	for {
		for _, e := range n.entries {
			consider(e)
		}
		if d >= depth {
			break
		}
		child := n.children[t.chunkHash(doc, d)]
		if child == nil {
			break
		}
		n = child
		d++
	}
	// Deepest reached node: its representative covers descendants deeper
	// than the descent (they share at least d full chunks, possibly more
	// of doc's next partial chunk); each divergent child's representative
	// covers documents that split from doc inside chunk d.
	consider(n.rep)
	for _, c := range n.children {
		consider(c.rep)
	}
	return bestVal, bestLen
}

// Len returns the number of indexed documents.
func (t *prefixTree[V]) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, r := range t.roots {
		n += r.size
	}
	return n
}
