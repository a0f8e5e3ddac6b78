package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/attention"
	"repro/internal/index/graph"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/storage/kvfile"
)

func TestSaveLoadContextRoundTrip(t *testing.T) {
	db := testDB(t, nil)
	const n = 500
	doc := model.NewFiller(21, n, 32, 32)
	doc.Plant(250, 200, 9, 1)
	ctx, err := db.ImportDoc(doc)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ctx")
	if err := db.SaveContext(ctx, dir); err != nil {
		t.Fatal(err)
	}

	// A second DB (same model) loads the context and serves sessions.
	db2 := testDB(t, nil)
	loaded, err := db2.LoadContext(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != n {
		t.Fatalf("loaded len = %d", loaded.Len())
	}
	// KV must be byte-identical.
	mc := db.Model().Config()
	for l := 0; l < mc.Layers; l++ {
		for h := 0; h < mc.KVHeads; h++ {
			a, b := ctx.Cache().Keys(l, h), loaded.Cache().Keys(l, h)
			for i := 0; i < n; i += 97 {
				for j := range a.Row(i) {
					if a.Row(i)[j] != b.Row(i)[j] {
						t.Fatalf("keys differ at L%dH%d row %d", l, h, i)
					}
				}
			}
			av, bv := ctx.Cache().Values(l, h), loaded.Cache().Values(l, h)
			for j := range av.Row(0) {
				if av.Row(0)[j] != bv.Row(0)[j] {
					t.Fatalf("values differ at L%dH%d", l, h)
				}
			}
		}
	}
	// Graphs must be reusable: a session over the loaded context retrieves
	// through the persisted index.
	sess, reused := db2.CreateSession(loaded.Doc())
	defer sess.Close()
	if reused != n {
		t.Fatalf("reused = %d", reused)
	}
	mdl := db2.Model()
	q := mdl.QueryVector(loaded.Doc(), 1, 0, model.QuerySpec{FocusTopics: []int{200}, ContextLen: n})
	res := sess.Attention(1, 0, q)
	if res.Plan.Query == query.KindDIPR && res.Retrieved == 0 {
		t.Error("loaded context retrieved nothing")
	}
}

// spillDirHash hashes every file in dir in sorted (name, bytes) order.
func spillDirHash(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(raw)))
		h.Write([]byte(e.Name()))
		h.Write([]byte{0})
		h.Write(n[:])
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSaveContextGolden pins the bytes of every file SaveContext writes for
// a seeded SQ8 root, an fp32 root and a copy-on-write tail: one kvfile
// record per key or value file, plus the manifest. How a spill is
// committed (temporary directory, fsync, rename) must not move them. The
// KV substrate's float math is only reproducible where float32
// multiply-add is not fused (amd64, 386).
func TestSaveContextGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("golden hashes assume unfused float32 multiply-add; GOARCH=%s may fuse", runtime.GOARCH)
	}
	newDB := func(quant bool) *DB {
		db, err := New(Config{
			Model:         testModel(),
			Window:        attention.Window{Sinks: 4, Recent: 16},
			LongThreshold: 256,
			Graph:         graph.Config{Degree: 12, QueryKNN: 8, EfConstruction: 48},
			QuantKeys:     quant,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	save := func(db *DB, ctx *Context) string {
		dir := filepath.Join(t.TempDir(), "ctx")
		if err := db.SaveContext(ctx, dir); err != nil {
			t.Fatal(err)
		}
		return spillDirHash(t, dir)
	}

	q8 := newDB(true)
	q8Root, err := q8.ImportDoc(model.NewFiller(71, 300, 16, 32))
	if err != nil {
		t.Fatal(err)
	}
	fp := newDB(false)
	baseDoc := model.NewFiller(72, 300, 16, 32)
	fpRoot, err := fp.ImportDoc(baseDoc)
	if err != nil {
		t.Fatal(err)
	}
	sess, reused := fp.CreateSession(diverge(baseDoc, 260, 45, 100))
	if reused != 260 {
		t.Fatalf("reused = %d, want 260", reused)
	}
	sess.PrefillRemaining()
	tail, err := fp.Store(sess)
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if tail.Base() != fpRoot {
		t.Fatal("stored context is not a copy-on-write tail of the fp32 root")
	}

	for _, tc := range []struct {
		name string
		got  string
		want string
	}{
		{"sq8 root", save(q8, q8Root), "286bed478a32582e677f372e3aba544c86cf73f07382168031807ea6d1edcc4d"},
		{"fp32 root", save(fp, fpRoot), "19e4c018543c4e9edb3aeb67b0d984bf8ba3a5a3fa8262e7bcc53cac8ca02a3d"},
		{"cow tail", save(fp, tail), "dc042eab849b03a9e0a7285280a1db87e6a331bdcd90850d5d09f0d019fc56ff"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: spill directory hash %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}

// craftAdjacency re-encodes the first keys file in dir that holds a graph
// with its adjacency passed through edit, so the record's checksums stay
// valid and only the adjacency checks can reject it. It returns the file's
// path.
func craftAdjacency(t *testing.T, dir string, edit func(adj [][]int32) [][]int32) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.keys"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		m, adj, err := kvfile.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if adj == nil {
			continue
		}
		if err := os.WriteFile(path, kvfile.Append(nil, m, edit(adj)), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	t.Fatalf("no keys file in %s holds a graph", dir)
	return ""
}

// TestLoadContextRejectsCraftedAdjacency: a keys file whose checksums are
// valid but whose adjacency does not fit its rows — one node short, or a
// neighbour id past the last row — must fail LoadContext with an error. The
// graph rebuilt from it would otherwise panic at load or at the first
// attention call on that layer.
func TestLoadContextRejectsCraftedAdjacency(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(adj [][]int32) [][]int32
	}{
		{"one node short", func(adj [][]int32) [][]int32 { return adj[:len(adj)-1] }},
		{"neighbour past the last row", func(adj [][]int32) [][]int32 {
			adj[0][0] = int32(len(adj))
			return adj
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := testDB(t, nil)
			ctx, err := db.ImportDoc(model.NewFiller(27, 300, 16, 32))
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(t.TempDir(), "ctx")
			if err := db.SaveContext(ctx, dir); err != nil {
				t.Fatal(err)
			}
			craftAdjacency(t, dir, tc.edit)
			if _, err := testDB(t, nil).LoadContext(dir); !errors.Is(err, kvfile.ErrCorrupt) {
				t.Fatalf("LoadContext of a crafted adjacency: err %v, want kvfile.ErrCorrupt", err)
			}
		})
	}
}

func TestLoadContextModelMismatch(t *testing.T) {
	db := testDB(t, nil)
	doc := model.NewFiller(22, 300, 16, 32)
	ctx, err := db.ImportDoc(doc)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ctx")
	if err := db.SaveContext(ctx, dir); err != nil {
		t.Fatal(err)
	}

	otherCfg := model.Default()
	otherCfg.Layers = 3 // differs from testModel's 2
	otherCfg.HeadDim = 128
	other, err := New(Config{Model: model.New(otherCfg)})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if _, err := other.LoadContext(dir); err == nil {
		t.Fatal("model mismatch accepted")
	}
}

func TestLoadContextMissingDir(t *testing.T) {
	db := testDB(t, nil)
	if _, err := db.LoadContext(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing dir accepted")
	}
}

func TestLoadContextCorruptManifest(t *testing.T) {
	db := testDB(t, nil)
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{not json"), 0o644)
	if _, err := db.LoadContext(dir); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
}

// TestShareMismatchRejected pins that a manifest with share_gqa false, the
// per-query-head index layout no build reads, is rejected on load.
func TestShareMismatchRejected(t *testing.T) {
	db := testDB(t, nil)
	doc := model.NewFiller(24, 300, 16, 32)
	ctx, err := db.ImportDoc(doc)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ctx")
	if err := db.SaveContext(ctx, dir); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, "manifest.json")
	raw, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]json.RawMessage
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	man["share_gqa"] = json.RawMessage("false")
	raw, err = json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	db2 := testDB(t, nil)
	if _, err := db2.LoadContext(dir); err == nil {
		t.Fatal("GQA sharing mismatch accepted")
	}
}

// shardedManifest rewrites a saved manifest into the layout older builds
// wrote for a range-sharded context: a shard_ends list and one graph entry
// per (layer, group, shard).
func shardedManifest(t testing.TB, raw []byte, shardEnds []int32) []byte {
	t.Helper()
	var man map[string]json.RawMessage
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	var entries []int32
	if err := json.Unmarshal(man["entries"], &entries); err != nil {
		t.Fatal(err)
	}
	sharded := make([]int32, len(entries)*len(shardEnds))
	set := func(key string, v interface{}) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		man[key] = b
	}
	set("entries", sharded)
	set("shard_ends", shardEnds)
	out, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShardedSpillDirRejected: a spill directory written by a build that
// range-sharded its contexts carries L·G·S graph entries, which the
// entries-count check rejects. LoadContext must return an error, and the
// tier's restart recovery must skip the directory while still adopting an
// unsharded neighbour.
func TestShardedSpillDirRejected(t *testing.T) {
	db := testDB(t, nil)
	root := t.TempDir()
	save := func(doc *model.Document) string {
		ctx, err := db.ImportDoc(doc)
		if err != nil {
			t.Fatal(err)
		}
		dir := spillDirName(root, DocHash(doc))
		if err := db.SaveContext(ctx, dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	save(model.NewFiller(25, 300, 16, 32))
	old := save(model.NewFiller(26, 300, 16, 32))
	path := filepath.Join(old, "manifest.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, shardedManifest(t, raw, []int32{150, 300}), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := testDB(t, nil).LoadContext(old); err == nil {
		t.Fatal("sharded manifest accepted")
	}
	spill, err := New(Config{Model: testModel(), SpillDir: root})
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()
	if got := spill.TierStats().SpilledContexts; got != 1 {
		t.Fatalf("recovery catalogued %d spilled contexts, want only the unsharded one", got)
	}
}

// TestReloadAllocations bounds what one reload of a spilled context
// allocates: each file is decoded straight into its matrix's floats and
// the matrix adopted whole (SQ8 keys dequantized once into one matrix), so
// an fp32 reload allocates within 1.2× the restored KV bytes, the rest
// being the graphs' neighbour lists, and an SQ8 one within 2.5×, instead
// of the whole-file copies and growth copies of a row-by-row append.
func TestReloadAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the program's")
	}
	for _, quant := range []bool{false, true} {
		db, err := New(Config{
			Model:         testModel(),
			Window:        attention.Window{Sinks: 4, Recent: 16},
			LongThreshold: 256,
			Graph:         graph.Config{Degree: 12, QueryKNN: 8, EfConstruction: 48},
			QuantKeys:     quant,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		ctx, err := db.ImportDoc(model.NewFiller(73, 1024, 16, 32))
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "ctx")
		if err := db.SaveContext(ctx, dir); err != nil {
			t.Fatal(err)
		}
		var kv int64
		var alloc uint64
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			loaded, err := db.readContextDir(dir, nil)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			kv = loaded.Cache().Bytes()
			if got := after.TotalAlloc - before.TotalAlloc; i == 0 || got < alloc {
				alloc = got
			}
		}
		t.Logf("quant=%v: reload allocated %d bytes for %d KV bytes (%.2fx)", quant, alloc, kv, float64(alloc)/float64(kv))
		bound := 1.2
		if quant {
			bound = 2.5
		}
		if float64(alloc) > bound*float64(kv) {
			t.Errorf("quant=%v: reload allocated %d bytes for %d KV bytes, want at most %.1fx", quant, alloc, kv, bound)
		}
	}
}
