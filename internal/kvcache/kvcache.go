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
// # SQ8 key plane
//
// EnableQuantKeys turns on the quantized key plane: every key row gains an
// int8 shadow (vec.QuantMatrix, per-row scale), and the fp32 key rows are
// *snapped* to the dequantized values, so the fp32 plane and the quantized
// plane describe exactly the same vectors. Snapping is what makes the
// quantized read path deterministic end to end: reranking a quantized
// search in fp32, reloading a spilled context from its stored codes, and
// re-importing a stored session all reproduce bit-identical key rows
// (quantization is a fixed point on already-snapped rows). Values are never
// quantized.
type Cache struct {
	layers  int
	kvHeads int
	headDim int
	keys    []*vec.Matrix // indexed by layer*kvHeads + head
	values  []*vec.Matrix
	qkeys   []*vec.QuantMatrix // SQ8 shadow of keys; nil entries until enabled
	quant   bool
	zeroRow []float32 // read-only zero row AppendQuantized reserves space with
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

// EnableQuantKeys turns on the SQ8 key plane: existing key rows are
// quantized into int8 shadows and snapped to their dequantized values (see
// the type comment), and subsequent appends maintain the shadow. Values are
// untouched. Idempotent; a second call is a no-op.
func (c *Cache) EnableQuantKeys() {
	if c.quant {
		return
	}
	c.quant = true
	c.zeroRow = make([]float32, c.headDim)
	c.qkeys = make([]*vec.QuantMatrix, len(c.keys))
	for i, km := range c.keys {
		qm := vec.NewQuantMatrix(c.headDim)
		for r := 0; r < km.Rows(); r++ {
			row := km.Row(r)
			qm.Append(row)
			qm.DequantizeRow(r, row) // snap fp32 to the quantized plane
		}
		c.qkeys[i] = qm
	}
}

// QuantEnabled reports whether the cache maintains the SQ8 key plane.
func (c *Cache) QuantEnabled() bool { return c.quant }

// QuantKeys returns the SQ8 shadow of the key matrix for (layer, head), or
// nil when the quantized plane is not enabled. The matrix aliases cache
// storage; callers must not mutate it.
func (c *Cache) QuantKeys(layer, head int) *vec.QuantMatrix {
	if !c.quant {
		return nil
	}
	return c.qkeys[c.idx(layer, head)]
}

// Append adds one token's key and value vectors for the given layer/head and
// returns the token's position index within that head. With the quantized
// plane enabled the key row is quantized into the shadow and the stored
// fp32 row snapped to the dequantized values.
func (c *Cache) Append(layer, head int, k, v []float32) int {
	i := c.idx(layer, head)
	pos := c.keys[i].Append(k)
	c.values[i].Append(v)
	if c.quant {
		c.qkeys[i].Append(k)
		c.qkeys[i].DequantizeRow(pos, c.keys[i].Row(pos))
	}
	return pos
}

// AppendQuantized ingests one token's key directly in code form — the
// spill-reload path, where codes come back from disk bit-exact: the shadow
// adopts the codes and the fp32 key row is materialized by dequantization.
// v is the token's value vector. Panics unless the quantized plane is
// enabled.
func (c *Cache) AppendQuantized(layer, head int, codes []int8, scale float32, v []float32) int {
	if !c.quant {
		panic("kvcache: AppendQuantized on a cache without the quantized key plane")
	}
	i := c.idx(layer, head)
	qm := c.qkeys[i]
	pos := qm.AppendCodes(codes, scale)
	// Reserve the fp32 row with the shared zero buffer (Append copies it;
	// DequantizeRow overwrites the stored row right after), instead of
	// allocating a throwaway slice per reloaded token.
	row := c.keys[i].Append(c.zeroRow)
	if row != pos {
		panic(fmt.Sprintf("kvcache: quant plane at row %d, keys at row %d", pos, row))
	}
	qm.DequantizeRow(pos, c.keys[i].Row(pos))
	c.values[i].Append(v)
	return pos
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

// ByteSizes is the footprint of a cache split by plane: fp32 keys, fp32
// values, and the SQ8 shadow (codes plus per-row metadata; zero when the
// quantized plane is disabled).
type ByteSizes struct {
	Keys      int64
	Values    int64
	QuantKeys int64
}

// Total sums the planes.
func (b ByteSizes) Total() int64 { return b.Keys + b.Values + b.QuantKeys }

// BytesSplit returns the cache footprint split by plane, so the quantized
// plane's cost (and the key/value asymmetry it introduces) is observable
// instead of folded into one number.
func (c *Cache) BytesSplit() ByteSizes {
	var b ByteSizes
	for i := range c.keys {
		b.Keys += c.keys[i].Bytes()
		b.Values += c.values[i].Bytes()
		if c.quant {
			b.QuantKeys += c.qkeys[i].Bytes()
		}
	}
	return b
}

// Bytes returns the total in-memory footprint of all K and V payloads,
// including the quantized shadow plane when enabled.
func (c *Cache) Bytes() int64 { return c.BytesSplit().Total() }

// Clone returns a deep copy of the cache.
func (c *Cache) Clone() *Cache {
	out := &Cache{layers: c.layers, kvHeads: c.kvHeads, headDim: c.headDim, quant: c.quant,
		keys: make([]*vec.Matrix, len(c.keys)), values: make([]*vec.Matrix, len(c.values))}
	if c.quant {
		out.zeroRow = make([]float32, c.headDim)
	}
	for i := range c.keys {
		out.keys[i] = c.keys[i].Clone()
		out.values[i] = c.values[i].Clone()
	}
	if c.quant {
		out.qkeys = make([]*vec.QuantMatrix, len(c.qkeys))
		for i := range c.qkeys {
			out.qkeys[i] = c.qkeys[i].Clone()
		}
	}
	return out
}

// Truncate drops all tokens at position >= n in every layer and head. It is
// used to roll a cache back to a reusable prefix.
func (c *Cache) Truncate(n int) {
	for i := range c.keys {
		if c.keys[i].Rows() > n {
			c.keys[i] = c.keys[i].Slice(0, n).Clone()
			c.values[i] = c.values[i].Slice(0, n).Clone()
			if c.quant {
				c.qkeys[i].Truncate(n)
			}
		}
	}
}
