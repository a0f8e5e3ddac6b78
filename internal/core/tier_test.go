package core

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/attention"
	"repro/internal/index/graph"
	"repro/internal/model"
)

// tierDB builds a DB whose resident store fits roughly `contexts` stored
// documents of `tokens` tokens each and spills evictions into dir.
func tierDB(t *testing.T, tokens, contexts int, dir string, spillBudget int64) *DB {
	t.Helper()
	mdl := testModel()
	mc := mdl.Config()
	perCtx := int64(tokens) * int64(mc.Layers) * int64(mc.KVHeads) * int64(mc.HeadDim) * 4 * 2
	perCtx += perCtx / 4 // index headroom
	db, err := New(Config{
		Model:         mdl,
		Window:        attention.Window{Sinks: 4, Recent: 16},
		LongThreshold: 256,
		Graph:         graph.Config{Degree: 12, QueryKNN: 8, EfConstruction: 48},
		ContextBudget: perCtx * int64(contexts),
		SpillDir:      dir,
		SpillBudget:   spillBudget,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestEvictionSpillsInsteadOfDropping(t *testing.T) {
	dir := t.TempDir()
	db := tierDB(t, 300, 2, dir, 0)
	docs := make([]*model.Document, 3)
	for i := range docs {
		docs[i] = model.NewFiller(uint64(80+i), 300, 16, 32)
		if _, err := db.ImportDoc(docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.NumContexts(); got != 2 {
		t.Fatalf("resident contexts = %d, want 2", got)
	}
	ts := db.TierStats()
	if !ts.Enabled || ts.SpilledContexts != 1 || ts.Counters.Spills != 1 {
		t.Fatalf("tier stats after eviction: %+v", ts)
	}
	if ts.SpilledDiskBytes <= 0 {
		t.Fatalf("spilled disk bytes = %d", ts.SpilledDiskBytes)
	}
	// The spill directory holds the victim's context files.
	sub := spillDirName(dir, DocHash(docs[0]))
	if _, err := os.Stat(filepath.Join(sub, "manifest.json")); err != nil {
		t.Fatalf("spilled manifest missing: %v", err)
	}

	// A session on the evicted document reloads it transparently.
	sess, reused := db.CreateSession(docs[0])
	defer sess.Close()
	if reused != 300 {
		t.Fatalf("reused = %d, want 300 (transparent reload)", reused)
	}
	if !sess.BaseFromSpill() {
		t.Error("session base should be marked as reloaded from spill")
	}
	ts = db.TierStats()
	if ts.Counters.ReloadHits != 1 {
		t.Fatalf("reload hits = %d, want 1", ts.Counters.ReloadHits)
	}
	if ts.Counters.Reloads != 1 || ts.Counters.ReloadMean <= 0 {
		t.Fatalf("reload latency not recorded: %+v", ts.Counters)
	}
	// The reload consumed the spill entry but pushed the store back over
	// budget, so another context was spilled in its place.
	if ts.SpilledContexts != 1 {
		t.Fatalf("spilled contexts after reload churn = %d, want 1", ts.SpilledContexts)
	}
	if _, err := os.Stat(sub); !os.IsNotExist(err) {
		t.Errorf("consumed spill dir still on disk: %v", err)
	}
}

// TestCreateReclaimsDrainingVictim puts an evicted context in the state
// spillOne holds it in while SaveContext writes its directory — neither
// resident nor catalogued, held in spilling — and creates a session on
// its document: the session must reuse it in full from memory, without a
// reload or a re-prefill.
func TestCreateReclaimsDrainingVictim(t *testing.T) {
	db := tierDB(t, 300, 2, t.TempDir(), 0)
	doc := model.NewFiller(95, 300, 16, 32)
	ctx, err := db.ImportDoc(doc)
	if err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	for i, c := range db.contexts {
		if c == ctx {
			db.evictLocked(i)
			break
		}
	}
	db.mu.Unlock()
	db.tier.mu.Lock()
	db.tier.spilling[ctx.hash] = ctx
	db.tier.mu.Unlock()

	sess, reused := db.CreateSession(doc)
	defer sess.Close()
	if reused != 300 {
		t.Fatalf("reused = %d, want 300 from the draining victim", reused)
	}
	if sess.BaseFromSpill() {
		t.Error("session marked as reloaded from spill; nothing was read from disk")
	}
	if !ctx.resident || db.NumContexts() != 1 {
		t.Errorf("victim resident = %v, %d resident contexts; want it registered back", ctx.resident, db.NumContexts())
	}
	if c := db.TierStats().Counters; c.Reloads != 0 || c.ReloadMisses != 0 {
		t.Errorf("tier counters %+v: a reclaim is neither a reload nor a miss", c)
	}
}

func TestTierMissCountsColdSession(t *testing.T) {
	db := tierDB(t, 300, 2, t.TempDir(), 0)
	if _, err := db.ImportDoc(model.NewFiller(90, 300, 16, 32)); err != nil {
		t.Fatal(err)
	}
	sess, reused := db.CreateSession(model.NewFiller(91, 100, 16, 32))
	sess.Close()
	if reused != 0 {
		t.Fatalf("reused = %d", reused)
	}
	if ts := db.TierStats(); ts.Counters.ReloadMisses != 1 {
		t.Fatalf("misses = %d, want 1", ts.Counters.ReloadMisses)
	}
}

func TestSpillBudgetDropsLRU(t *testing.T) {
	dir := t.TempDir()
	// Resident store fits one context; spill tier fits roughly one spilled
	// context, so a second spill drops the older one.
	db := tierDB(t, 200, 1, dir, 0)
	first := model.NewFiller(100, 200, 16, 32)
	if _, err := db.ImportDoc(first); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ImportDoc(model.NewFiller(101, 200, 16, 32)); err != nil {
		t.Fatal(err)
	}
	spilledBytes := db.TierStats().SpilledDiskBytes
	if spilledBytes <= 0 {
		t.Fatal("no spill happened")
	}
	db.tier.mu.Lock()
	db.tier.budget = spilledBytes + spilledBytes/2 // room for ~1.5 spilled contexts
	db.tier.mu.Unlock()
	if _, err := db.ImportDoc(model.NewFiller(102, 200, 16, 32)); err != nil {
		t.Fatal(err)
	}
	ts := db.TierStats()
	if ts.SpilledContexts != 1 {
		t.Fatalf("spilled contexts = %d, want 1 after budget drop", ts.SpilledContexts)
	}
	if ts.Counters.SpillDrops != 1 {
		t.Fatalf("spill drops = %d, want 1", ts.Counters.SpillDrops)
	}
	if ts.SpilledDiskBytes > ts.SpillBudget {
		t.Fatalf("disk bytes %d over budget %d", ts.SpilledDiskBytes, ts.SpillBudget)
	}
	// The dropped context (the LRU: `first`) is gone from disk and catalog.
	sess, reused := db.CreateSession(first)
	sess.Close()
	if reused != 0 {
		t.Errorf("budget-dropped context still reused (%d tokens)", reused)
	}
}

func TestRecoverSpilledAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	doc := model.NewFiller(110, 300, 16, 32)
	db1 := tierDB(t, 300, 1, dir, 0)
	if _, err := db1.ImportDoc(doc); err != nil {
		t.Fatal(err)
	}
	if _, err := db1.ImportDoc(model.NewFiller(111, 300, 16, 32)); err != nil {
		t.Fatal(err) // evicts doc to disk
	}
	if db1.TierStats().SpilledContexts != 1 {
		t.Fatal("expected one spilled context")
	}
	db1.Close()

	// A fresh DB over the same spill directory adopts the spilled context.
	db2 := tierDB(t, 300, 1, dir, 0)
	if got := db2.TierStats().SpilledContexts; got != 1 {
		t.Fatalf("recovered spilled contexts = %d, want 1", got)
	}
	sess, reused := db2.CreateSession(doc)
	defer sess.Close()
	if reused != 300 {
		t.Fatalf("reused = %d, want 300 from recovered spill", reused)
	}
}

// TestFailedReloadConsumesEntry corrupts one file of a spilled context
// (a keys file one adjacency node short, checksums intact) and creates a
// session on its document: the reload fails as an error, counted once; the
// session starts cold; the catalog entry and its directory are gone, so a
// second create neither retries the reload nor waits on it.
func TestFailedReloadConsumesEntry(t *testing.T) {
	dir := t.TempDir()
	db := tierDB(t, 300, 1, dir, 0)
	doc := model.NewFiller(112, 300, 16, 32)
	if _, err := db.ImportDoc(doc); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ImportDoc(model.NewFiller(113, 300, 16, 32)); err != nil {
		t.Fatal(err) // evicts doc to disk
	}
	sub := spillDirName(dir, DocHash(doc))
	craftAdjacency(t, sub, func(adj [][]int32) [][]int32 { return adj[:len(adj)-1] })

	for attempt := 1; attempt <= 2; attempt++ {
		sess, reused := db.CreateSession(doc)
		sess.Close()
		if reused != 0 {
			t.Fatalf("create %d: reused = %d from a corrupt spill, want 0", attempt, reused)
		}
		ts := db.TierStats()
		if ts.Counters.ReloadErrors != 1 || ts.Counters.Reloads != 0 {
			t.Fatalf("create %d: %d reload errors, %d reloads; want 1 and 0", attempt, ts.Counters.ReloadErrors, ts.Counters.Reloads)
		}
		if ts.SpilledContexts != 0 {
			t.Fatalf("create %d: %d spilled contexts catalogued, want the corrupt one consumed", attempt, ts.SpilledContexts)
		}
		if _, err := os.Stat(sub); !os.IsNotExist(err) {
			t.Fatalf("create %d: corrupt spill dir still on disk: %v", attempt, err)
		}
	}
}

// TestRecoverSkipsVersion1Manifest: a spill directory an older build left,
// its manifest at version 1 over block-chained vector files, is neither
// adopted nor deleted by a new DB over the same spill directory.
func TestRecoverSkipsVersion1Manifest(t *testing.T) {
	dir := t.TempDir()
	doc := model.NewFiller(114, 300, 16, 32)
	db1 := tierDB(t, 300, 1, dir, 0)
	if _, err := db1.ImportDoc(doc); err != nil {
		t.Fatal(err)
	}
	if _, err := db1.ImportDoc(model.NewFiller(115, 300, 16, 32)); err != nil {
		t.Fatal(err) // evicts doc to disk
	}
	db1.Close()
	manPath := filepath.Join(spillDirName(dir, DocHash(doc)), "manifest.json")
	raw, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(raw), `"version": 2,`, `"version": 1,`, 1)
	old = strings.Replace(old, `"entries":`, `"block_size": 4096, "entries":`, 1)
	if old == string(raw) {
		t.Fatal("manifest has no version field to rewrite")
	}
	if err := os.WriteFile(manPath, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := tierDB(t, 300, 1, dir, 0)
	if got := db2.TierStats().SpilledContexts; got != 0 {
		t.Fatalf("recovery adopted %d spilled contexts, want the version-1 one skipped", got)
	}
	got, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatalf("version-1 spill directory deleted: %v", err)
	}
	if string(got) != old {
		t.Fatal("version-1 manifest rewritten")
	}
}

// TestCorruptManifestGeometryRejected pins that a corrupt or hand-edited
// manifest surfaces an error instead of panicking the reload path: the
// entries and groups fields feed slot indexes and allocation sizes.
func TestCorruptManifestGeometryRejected(t *testing.T) {
	db := testDB(t, nil)
	doc := model.NewFiller(170, 200, 16, 32)
	ctx, err := db.ImportDoc(doc)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ctx")
	if err := db.SaveContext(ctx, dir); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, "manifest.json")
	good, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, mut := range []struct{ name, old, new string }{
		{"empty entries", `"entries": [`, `"entries_x": [`},
		{"zero groups", `"groups": 2`, `"groups": 0`},
		{"oversized groups", `"groups": 2`, `"groups": 64`},
		{"out-of-range entry", `"entries": [`, `"entries": [99999,`},
	} {
		if err := os.WriteFile(manPath, []byte(strings.Replace(string(good), mut.old, mut.new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		db2 := testDB(t, nil)
		if _, err := db2.LoadContext(dir); err == nil {
			t.Errorf("%s: corrupt manifest accepted", mut.name)
		}
	}
}

// TestSpillReloadRoundTripProperty is the tier's property test: for random
// documents and budgets, a spill→reload cycle must round-trip the context
// exactly — byte footprint, KV cache contents, graph adjacency and entry
// points (extends persist_test.go's single-shot round-trip).
func TestSpillReloadRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		tokens := 150 + rng.Intn(300)
		topics := 8 + rng.Intn(24)
		doc := model.NewFiller(uint64(300+trial), tokens, topics, 32)
		for p := 0; p < 3; p++ {
			doc.Plant(rng.Intn(tokens), rng.Intn(topics), rng.Intn(32), 1)
		}

		db := tierDB(t, tokens, 1, t.TempDir(), 0)
		orig, err := db.ImportDoc(doc)
		if err != nil {
			t.Fatal(err)
		}
		// Random filler import evicts doc; its size relative to the budget
		// varies per trial.
		filler := model.NewFiller(uint64(400+trial), 100+rng.Intn(tokens-100), topics, 32)
		if _, err := db.ImportDoc(filler); err != nil {
			t.Fatal(err)
		}
		if db.TierStats().SpilledContexts == 0 {
			t.Fatalf("trial %d: no spill (budget too generous)", trial)
		}
		sess, reused := db.CreateSession(doc)
		if reused != tokens {
			t.Fatalf("trial %d: reused %d of %d", trial, reused, tokens)
		}
		got := sess.base
		sess.Close()

		if got.Bytes() != orig.Bytes() {
			t.Fatalf("trial %d: Bytes() %d != %d after round trip", trial, got.Bytes(), orig.Bytes())
		}
		mc := db.Model().Config()
		for l := 0; l < mc.Layers; l++ {
			for h := 0; h < mc.KVHeads; h++ {
				ak, bk := orig.cache.Keys(l, h), got.cache.Keys(l, h)
				av, bv := orig.cache.Values(l, h), got.cache.Values(l, h)
				if ak.Rows() != bk.Rows() {
					t.Fatalf("trial %d: L%dH%d rows %d != %d", trial, l, h, ak.Rows(), bk.Rows())
				}
				for i := 0; i < ak.Rows(); i++ {
					for j := range ak.Row(i) {
						if ak.Row(i)[j] != bk.Row(i)[j] || av.Row(i)[j] != bv.Row(i)[j] {
							t.Fatalf("trial %d: KV mismatch at L%dH%d row %d", trial, l, h, i)
						}
					}
				}
			}
		}
		if len(orig.graphs) != len(got.graphs) {
			t.Fatalf("trial %d: graph count %d != %d", trial, len(got.graphs), len(orig.graphs))
		}
		for gi := range orig.graphs {
			a, b := orig.graphs[gi], got.graphs[gi]
			if (a == nil) != (b == nil) {
				t.Fatalf("trial %d: graph %d nil mismatch", trial, gi)
			}
			if a == nil {
				continue
			}
			if a.Entry() != b.Entry() {
				t.Fatalf("trial %d: graph %d entry %d != %d", trial, gi, b.Entry(), a.Entry())
			}
			aAdj, bAdj := adjacencyOf(a), adjacencyOf(b)
			for u := range aAdj {
				if len(aAdj[u]) != len(bAdj[u]) {
					t.Fatalf("trial %d: graph %d node %d degree %d != %d", trial, gi, u, len(bAdj[u]), len(aAdj[u]))
				}
				for k := range aAdj[u] {
					if aAdj[u][k] != bAdj[u][k] {
						t.Fatalf("trial %d: graph %d node %d neighbour %d differs", trial, gi, u, k)
					}
				}
			}
		}
	}
}
