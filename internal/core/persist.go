package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/index/graph"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/storage/vfs"
	"repro/internal/vec"
)

// Persistence layout: one directory per context, one vector file per
// (layer, kv-head) for keys and one for values; each kv head's graph
// adjacency lives in its keys file; a JSON manifest records the document
// and graph entry points.
//
// manifest.json
// L<layer>H<head>.keys        KV keys + the kv head's graph adjacency
// L<layer>H<head>.vals        KV values
//
// Every context holds exactly one graph per (layer, kv head), shared by
// that kv head's query heads; the manifest's share_gqa is always true.

type manifest struct {
	Version   int           `json:"version"`
	Model     model.Config  `json:"model"`
	Seed      uint64        `json:"seed"`
	Tokens    []model.Token `json:"tokens"`
	Groups    int           `json:"groups"`
	ShareGQA  bool          `json:"share_gqa"` // always true; false is rejected
	Entries   []int32       `json:"entries"`   // graph entry points, layer*groups+group
	BlockSize int           `json:"block_size"`
	// Quant marks the SQ8 layout: every .keys file stores packed int8 codes
	// (vec.PackedWords(HeadDim) words per row — a quarter of the fp32
	// payload) instead of fp32 rows, with the per-row dequantization scales
	// here in the manifest, indexed layer*KVHeads+head. Values stay fp32.
	Quant       bool        `json:"quant,omitempty"`
	QuantScales [][]float32 `json:"quant_scales,omitempty"`
	// BaseHash/BaseLen mark a copy-on-write tail: the directory holds only
	// rows [BaseLen, len(Tokens)) and no graphs; the leading BaseLen rows
	// (and all indexes) belong to the context whose DocHash is BaseHash,
	// persisted in its own directory exactly once. Tail rows are always
	// fp32 — SQ8 codes are written with the base.
	BaseHash uint64 `json:"base_hash,omitempty"`
	BaseLen  int    `json:"base_len,omitempty"`
}

// SaveContext persists a stored context into dir (created if absent). A
// cache on the SQ8 grid saves its keys in code form — packed int8 rows a
// quarter of the fp32 size, scales in the manifest. The codes are
// recomputed from the snapped rows (kvcache.Cache.QuantKeys); a snapped row
// is a fixed point of quantization, so re-quantizing it yields exactly the
// codes and scale it came from, and reload reconstructs the identical rows.
// A copy-on-write
// context saves only what it owns: its divergent tail rows and a manifest
// pointer to its base; the caller (the spill tier) is responsible for
// persisting the base chain under its own hashes.
func (db *DB) SaveContext(ctx *Context, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: save context: %w", err)
	}
	mc := db.cfg.Model.Config()
	quant := ctx.cache.QuantEnabled()
	man := manifest{
		Version:   1,
		Model:     mc,
		Seed:      ctx.doc.Seed,
		Tokens:    ctx.doc.Tokens,
		Groups:    ctx.groups,
		ShareGQA:  true,
		Entries:   make([]int32, mc.Layers*ctx.groups),
		BlockSize: vfs.DefaultBlock,
		Quant:     quant,
	}
	if ctx.base != nil {
		man.BaseHash = ctx.base.hash
		if man.BaseHash == 0 {
			man.BaseHash = DocHash(ctx.base.doc)
		}
		man.BaseLen = ctx.baseLen
	}
	for i, g := range ctx.graphs {
		if g != nil {
			man.Entries[i] = g.Entry()
		}
	}
	if quant {
		man.QuantScales = make([][]float32, mc.Layers*mc.KVHeads)
	}

	for l := 0; l < mc.Layers; l++ {
		for h := 0; h < mc.KVHeads; h++ {
			keyDim := mc.HeadDim
			if quant {
				keyDim = vec.PackedWords(mc.HeadDim)
			}
			kf, err := vfs.Create(filepath.Join(dir, fmt.Sprintf("L%dH%d.keys", l, h)), vfs.DefaultBlock, keyDim)
			if err != nil {
				return err
			}
			if quant {
				if err := appendPackedKeys(kf, ctx.cache.QuantKeys(l, h), &man, l*mc.KVHeads+h); err != nil {
					kf.Close()
					return err
				}
			} else if err := kf.AppendMatrix(ctx.cache.Keys(l, h)); err != nil {
				kf.Close()
				return err
			}
			if ctx.graphs != nil {
				g := ctx.graphs[l*ctx.groups+h]
				if g != nil {
					if err := kf.WriteAdjacency(adjacencyOf(g)); err != nil {
						kf.Close()
						return err
					}
				}
			}
			if err := kf.Close(); err != nil {
				return err
			}

			vf, err := vfs.Create(filepath.Join(dir, fmt.Sprintf("L%dH%d.vals", l, h)), vfs.DefaultBlock, mc.HeadDim)
			if err != nil {
				return err
			}
			if err := vf.AppendMatrix(ctx.cache.Values(l, h)); err != nil {
				vf.Close()
				return err
			}
			if err := vf.Close(); err != nil {
				return err
			}
		}
	}

	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), raw, 0o644)
}

// LoadContext restores a context saved by SaveContext and registers it in
// the DB for session reuse. The manifest's model configuration must match
// the DB's. A copy-on-write tail resolves its base against the resident
// store only: load chains root-first. Registration goes through the
// normal store lifecycle: the loaded context counts against the context
// budget and may evict (and spill) older residents.
func (db *DB) LoadContext(dir string) (*Context, error) {
	ctx, err := db.readContextDir(dir, db.residentBase)
	if err != nil {
		return nil, err
	}
	if err := db.registerContext(ctx); err != nil {
		return nil, err
	}
	return ctx, nil
}

// residentBase resolves a base hash against the resident store only.
func (db *DB) residentBase(hash uint64) (*Context, error) {
	db.mu.RLock()
	ctx := db.byHash[hash]
	db.mu.RUnlock()
	if ctx == nil {
		return nil, fmt.Errorf("core: base context %016x is not resident", hash)
	}
	return ctx, nil
}

// appendPackedKeys writes one head's SQ8 key rows into kf in packed code
// form (vec.PackRow), as one matrix append, and records the per-row scales
// in the manifest slot.
func appendPackedKeys(kf *vfs.FS, qm *vec.QuantMatrix, man *manifest, slot int) error {
	packed := vec.NewMatrix(qm.Rows(), vec.PackedWords(qm.Cols()))
	scales := make([]float32, qm.Rows())
	for i := range scales {
		qm.PackRow(i, packed.Row(i))
		scales[i] = qm.Scale(i)
	}
	if err := kf.AppendMatrix(packed); err != nil {
		return err
	}
	man.QuantScales[slot] = scales
	return nil
}

// readManifest loads and validates a context directory's manifest against
// the DB's configuration.
func (db *DB) readManifest(dir string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("core: load context: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("core: parse manifest: %w", err)
	}
	mc := db.cfg.Model.Config()
	if man.Model != mc {
		return nil, fmt.Errorf("core: context was saved for model %+v, DB runs %+v", man.Model, mc)
	}
	if !man.ShareGQA {
		return nil, fmt.Errorf("core: manifest has share_gqa false; only GQA-shared indexes are supported")
	}
	// The manifest is operator-editable JSON: geometry fields feed
	// allocation sizes and slot indexes, so a corrupt or crafted manifest
	// must surface as an error here, never a panic downstream (the vfs
	// layer applies the same discipline to its binary blocks).
	if want := db.indexGroups(); man.Groups != want {
		return nil, fmt.Errorf("core: manifest has %d index groups, DB expects %d", man.Groups, want)
	}
	if len(man.Entries) != mc.Layers*man.Groups {
		return nil, fmt.Errorf("core: manifest has %d graph entries for %d slots", len(man.Entries), mc.Layers*man.Groups)
	}
	rows := len(man.Tokens)
	for i, e := range man.Entries {
		if e < 0 || (int(e) >= rows && !(e == 0 && rows == 0)) {
			return nil, fmt.Errorf("core: manifest entry %d (%d) out of range for %d rows", i, e, rows)
		}
	}
	if man.BaseHash != 0 {
		// Copy-on-write tail: the directory owns rows [BaseLen, Tokens) in
		// fp32 — SQ8 codes, like the graphs, are written with the base — so
		// the quant layout check compares against the base's manifest, not
		// this one.
		if man.Quant {
			return nil, fmt.Errorf("core: copy-on-write tail %016x saved with a quantized key plane", man.BaseHash)
		}
		if man.BaseLen <= 0 || man.BaseLen > len(man.Tokens) {
			return nil, fmt.Errorf("core: manifest base length %d out of range for %d tokens", man.BaseLen, len(man.Tokens))
		}
	} else {
		if man.BaseLen != 0 {
			return nil, fmt.Errorf("core: manifest has base length %d but no base hash", man.BaseLen)
		}
		if man.Quant != db.cfg.QuantKeys {
			return nil, fmt.Errorf("core: context key layout (quant=%v) differs from DB (quant=%v)", man.Quant, db.cfg.QuantKeys)
		}
	}
	if man.Quant {
		// The scales size key-row reconstruction: a crafted manifest must
		// fail here, not index out of range while dequantizing.
		if len(man.QuantScales) != mc.Layers*mc.KVHeads {
			return nil, fmt.Errorf("core: manifest has %d scale slots for %d heads", len(man.QuantScales), mc.Layers*mc.KVHeads)
		}
		for i, s := range man.QuantScales {
			if len(s) != len(man.Tokens) {
				return nil, fmt.Errorf("core: scale slot %d has %d scales for %d tokens", i, len(s), len(man.Tokens))
			}
		}
	}
	return &man, nil
}

// baseResolver maps a manifest's base hash to a live context when a
// copy-on-write tail is read back. LoadContext resolves against resident
// contexts only; the spill tier falls through to a recursive reload.
type baseResolver func(hash uint64) (*Context, error)

// readContextDir rebuilds a context from a directory written by
// SaveContext, reading each file once, whole, with (*vfs.FS).ReadAll. A
// copy-on-write tail
// resolves its base through resolveBase and re-attaches to the chain; the
// restored context then owns only its tail rows, exactly as stored. It
// does not register the context; callers decide the lifecycle
// (LoadContext registers, the spill tier registers through its reload
// path).
func (db *DB) readContextDir(dir string, resolveBase baseResolver) (*Context, error) {
	man, err := db.readManifest(dir)
	if err != nil {
		return nil, err
	}
	mc := db.cfg.Model.Config()

	ctx := &Context{
		doc:    &model.Document{Seed: man.Seed, Tokens: man.Tokens},
		cache:  kvcache.New(mc.Layers, mc.KVHeads, mc.HeadDim),
		groups: man.Groups,
	}
	if man.BaseHash != 0 {
		if resolveBase == nil {
			return nil, fmt.Errorf("core: context in %s is a copy-on-write tail of %016x; no base resolver", dir, man.BaseHash)
		}
		base, err := resolveBase(man.BaseHash)
		if err != nil {
			return nil, fmt.Errorf("core: resolving base %016x: %w", man.BaseHash, err)
		}
		if base.Len() < man.BaseLen || commonPrefix(base.doc, ctx.doc) < man.BaseLen {
			return nil, fmt.Errorf("core: base %016x does not cover the %d-token shared prefix", man.BaseHash, man.BaseLen)
		}
		ctx.base, ctx.baseLen = base, man.BaseLen
	} else {
		ctx.graphs = make([]*graph.Graph, mc.Layers*man.Groups)
	}
	var codes []int8
	if man.Quant {
		ctx.cache.EnableQuantKeys() // empty cache: rows arrive snapped
		codes = make([]int8, mc.HeadDim)
	}
	for l := 0; l < mc.Layers; l++ {
		for h := 0; h < mc.KVHeads; h++ {
			kf, err := vfs.Open(filepath.Join(dir, fmt.Sprintf("L%dH%d.keys", l, h)))
			if err != nil {
				return nil, err
			}
			keys, err := kf.ReadAll()
			if err != nil {
				kf.Close()
				return nil, err
			}
			adj, err := kf.ReadAdjacency()
			kf.Close()
			if err != nil {
				return nil, err
			}

			vf, err := vfs.Open(filepath.Join(dir, fmt.Sprintf("L%dH%d.vals", l, h)))
			if err != nil {
				return nil, err
			}
			vals, err := vf.ReadAll()
			if err != nil {
				vf.Close()
				return nil, err
			}
			vf.Close()

			if keys.Rows() != vals.Rows() {
				return nil, fmt.Errorf("core: layer %d head %d: %d keys vs %d values", l, h, keys.Rows(), vals.Rows())
			}
			// The manifest's entries were range-checked against its token
			// count; the files must hold exactly the rows it claims before a
			// graph is hung off them.
			if want := len(man.Tokens) - man.BaseLen; keys.Rows() != want {
				return nil, fmt.Errorf("core: layer %d head %d: %d rows on disk, manifest expects %d owned rows", l, h, keys.Rows(), want)
			}
			if man.Quant {
				// Packed SQ8 rows: reconstruct codes bit-exactly and let the
				// cache dequantize them into the snapped fp32 rows.
				if want := vec.PackedWords(mc.HeadDim); keys.Cols() != want {
					return nil, fmt.Errorf("core: layer %d head %d: packed key width %d, want %d", l, h, keys.Cols(), want)
				}
				scales := man.QuantScales[l*mc.KVHeads+h]
				if keys.Rows() != len(scales) {
					return nil, fmt.Errorf("core: layer %d head %d: %d key rows for %d scales", l, h, keys.Rows(), len(scales))
				}
				for i := 0; i < keys.Rows(); i++ {
					vec.UnpackCodes(keys.Row(i), codes)
					ctx.cache.AppendQuantized(l, h, codes, scales[i], vals.Row(i))
				}
			} else {
				for i := 0; i < keys.Rows(); i++ {
					ctx.cache.Append(l, h, keys.Row(i), vals.Row(i))
				}
			}
			if adj != nil && ctx.graphs != nil {
				slot := l*man.Groups + h
				ctx.graphs[slot] = graph.FromAdjacency(ctx.cache.Keys(l, h), adj, man.Entries[slot], db.cfg.Graph)
			}
		}
	}
	return ctx, nil
}

// adjacencyOf extracts a graph's adjacency lists.
func adjacencyOf(g *graph.Graph) [][]int32 {
	adj := make([][]int32, g.Len())
	for i := range adj {
		adj[i] = g.Neighbors(int32(i))
	}
	return adj
}
