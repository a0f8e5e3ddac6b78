// Package kvcache implements the key/value cache that a decoder-only
// transformer accumulates during inference (§2 of the paper). The layout is
// one contiguous row-major matrix per (layer, kv-head) pair, which is the
// same logical shape HuggingFace's DynamicCache exposes and what AlayaDB's
// Session.Update ingests.
package kvcache

import (
	"fmt"

	"repro/internal/vec"
)

// Cache holds K and V matrices for every (layer, kv-head) pair. Tokens are
// appended in lockstep across heads of a layer; layers may momentarily
// differ in length during a prefill sweep.
//
// Cache is not safe for concurrent mutation of the same layer; concurrent
// reads are fine, and appends to *distinct* layers may proceed in parallel
// (each layer owns disjoint matrices) — the property core's parallel
// prefill sweep relies on.
//
// # SQ8 keys
//
// EnableQuantKeys puts the key rows on the SQ8 grid: each fp32 key row is
// *snapped* to the dequantized values of its int8 codes (per-row scale),
// and every later append is snapped the same way. Only fp32 rows are kept
// and every read scores them; the codes exist only in the spill format,
// where QuantKeys recomputes them from the snapped rows. Snapped rows are a
// fixed point of quantization, so that recomputation yields exactly the
// codes and scales the rows came from, and a reload dequantizes back to
// the identical rows (Adopt). Values are never quantized.
type Cache struct {
	layers  int
	kvHeads int
	headDim int
	keys    []*vec.Matrix // indexed by layer*kvHeads + head
	values  []*vec.Matrix
	quant   bool
}

// New returns an empty cache for the given model shape.
func New(layers, kvHeads, headDim int) *Cache {
	if layers <= 0 || kvHeads <= 0 || headDim <= 0 {
		panic(fmt.Sprintf("kvcache: invalid shape layers=%d kvHeads=%d headDim=%d", layers, kvHeads, headDim))
	}
	c := &Cache{
		layers:  layers,
		kvHeads: kvHeads,
		headDim: headDim,
		keys:    make([]*vec.Matrix, layers*kvHeads),
		values:  make([]*vec.Matrix, layers*kvHeads),
	}
	for i := range c.keys {
		c.keys[i] = vec.NewMatrix(0, headDim)
		c.values[i] = vec.NewMatrix(0, headDim)
	}
	return c
}

// Layers returns the number of layers.
func (c *Cache) Layers() int { return c.layers }

// KVHeads returns the number of key/value heads per layer.
func (c *Cache) KVHeads() int { return c.kvHeads }

// HeadDim returns the per-head vector dimensionality.
func (c *Cache) HeadDim() int { return c.headDim }

func (c *Cache) idx(layer, head int) int {
	if layer < 0 || layer >= c.layers || head < 0 || head >= c.kvHeads {
		panic(fmt.Sprintf("kvcache: (layer=%d, head=%d) out of range %dx%d", layer, head, c.layers, c.kvHeads))
	}
	return layer*c.kvHeads + head
}

// EnableQuantKeys puts the key rows on the SQ8 grid: existing rows are
// snapped in place (see the type comment) and subsequent appends are
// snapped too. Values are untouched. Idempotent; a second call is a no-op.
func (c *Cache) EnableQuantKeys() {
	if c.quant {
		return
	}
	c.quant = true
	for _, km := range c.keys {
		for r := 0; r < km.Rows(); r++ {
			vec.SnapRow(km.Row(r))
		}
	}
}

// QuantEnabled reports whether the cache keeps its key rows on the SQ8 grid.
func (c *Cache) QuantEnabled() bool { return c.quant }

// QuantKeys returns the SQ8 codes of the key matrix for (layer, head),
// computed on demand from the snapped rows (a fresh matrix each call), or
// nil when the cache is not on the SQ8 grid.
func (c *Cache) QuantKeys(layer, head int) *vec.QuantMatrix {
	if !c.quant {
		return nil
	}
	return vec.QuantizeMatrix(c.keys[c.idx(layer, head)])
}

// Append adds one token's key and value vectors for the given layer/head and
// returns the token's position index within that head. On the SQ8 grid the
// stored key row is snapped; k itself is not modified.
func (c *Cache) Append(layer, head int, k, v []float32) int {
	i := c.idx(layer, head)
	pos := c.keys[i].Append(k)
	c.values[i].Append(v)
	if c.quant {
		vec.SnapRow(c.keys[i].Row(pos))
	}
	return pos
}

// Adopt installs keys and values as the rows of (layer, head), taking
// ownership of both matrices: the reload path, which decodes each spill
// file into one matrix and hands it over whole instead of copying it row
// by row. On the SQ8 grid the key rows must already be snapped (a reload
// dequantizes codes, which yields exactly that). The slot must be empty.
func (c *Cache) Adopt(layer, head int, keys, values *vec.Matrix) {
	i := c.idx(layer, head)
	if c.keys[i].Rows() != 0 || keys.Cols() != c.headDim || values.Cols() != c.headDim || keys.Rows() != values.Rows() {
		panic(fmt.Sprintf("kvcache: Adopt of %dx%d keys and %dx%d values into a %d-row slot of %d columns",
			keys.Rows(), keys.Cols(), values.Rows(), values.Cols(), c.keys[i].Rows(), c.headDim))
	}
	c.keys[i], c.values[i] = keys, values
}

// AppendAll appends per-head key and value vectors for one token across all
// heads of a layer. ks and vs must have length KVHeads().
func (c *Cache) AppendAll(layer int, ks, vs [][]float32) {
	if len(ks) != c.kvHeads || len(vs) != c.kvHeads {
		panic(fmt.Sprintf("kvcache: AppendAll got %d/%d heads, want %d", len(ks), len(vs), c.kvHeads))
	}
	for h := 0; h < c.kvHeads; h++ {
		c.Append(layer, h, ks[h], vs[h])
	}
}

// Keys returns the key matrix for (layer, head). The matrix aliases cache
// storage; callers must not mutate it.
func (c *Cache) Keys(layer, head int) *vec.Matrix { return c.keys[c.idx(layer, head)] }

// Values returns the value matrix for (layer, head), aliasing cache storage.
func (c *Cache) Values(layer, head int) *vec.Matrix { return c.values[c.idx(layer, head)] }

// SeqLen returns the number of tokens stored for the given layer (taken from
// head 0; heads of a layer always advance together through AppendAll).
func (c *Cache) SeqLen(layer int) int { return c.keys[c.idx(layer, 0)].Rows() }

// ByteSizes is the footprint of a cache split by plane: fp32 keys and fp32
// values.
type ByteSizes struct {
	Keys   int64
	Values int64
	// QuantKeys is always zero: no int8 plane is resident. The field stays
	// only while benchmark/probes.go reads it (kvcache.quant_bytes_per_token).
	QuantKeys int64
}

// Total sums the planes.
func (b ByteSizes) Total() int64 { return b.Keys + b.Values + b.QuantKeys }

// BytesSplit returns the cache footprint split by plane.
func (c *Cache) BytesSplit() ByteSizes {
	var b ByteSizes
	for i := range c.keys {
		b.Keys += c.keys[i].Bytes()
		b.Values += c.values[i].Bytes()
	}
	return b
}

// Bytes returns the total in-memory footprint of all K and V payloads.
func (c *Cache) Bytes() int64 { return c.BytesSplit().Total() }

// Clone returns a deep copy of the cache.
func (c *Cache) Clone() *Cache {
	out := &Cache{layers: c.layers, kvHeads: c.kvHeads, headDim: c.headDim, quant: c.quant,
		keys: make([]*vec.Matrix, len(c.keys)), values: make([]*vec.Matrix, len(c.values))}
	for i := range c.keys {
		out.keys[i] = c.keys[i].Clone()
		out.values[i] = c.values[i].Clone()
	}
	return out
}
