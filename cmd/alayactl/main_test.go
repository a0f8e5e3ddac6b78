package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/attention"
	"repro/internal/core"
	"repro/internal/index/graph"
	"repro/internal/model"
)

func newDB(t *testing.T, quant bool) *core.DB {
	t.Helper()
	cfg := model.Default()
	cfg.Layers, cfg.QHeads, cfg.KVHeads, cfg.HeadDim, cfg.Vocab = 2, 4, 2, 64, 32
	db, err := core.New(core.Config{
		Model:         model.New(cfg),
		Window:        attention.Window{Sinks: 4, Recent: 16},
		LongThreshold: 256,
		Graph:         graph.Config{Degree: 8, QueryKNN: 4, EfConstruction: 16},
		QuantKeys:     quant,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func save(t *testing.T, db *core.DB, ctx *core.Context) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ctx")
	if err := db.SaveContext(ctx, dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// savedContexts saves an fp32 root with graphs, an SQ8 root and a
// copy-on-write tail of the fp32 root, and returns their directories by
// name.
func savedContexts(t *testing.T) map[string]string {
	t.Helper()
	q8 := newDB(t, true)
	q8Root, err := q8.ImportDoc(model.NewFiller(1, 300, 16, 32))
	if err != nil {
		t.Fatal(err)
	}
	fp := newDB(t, false)
	baseDoc := model.NewFiller(2, 300, 16, 32)
	fpRoot, err := fp.ImportDoc(baseDoc)
	if err != nil {
		t.Fatal(err)
	}
	doc := &model.Document{Seed: baseDoc.Seed, Tokens: append([]model.Token(nil), baseDoc.Tokens[:260]...)}
	for i := 0; i < 45; i++ {
		doc.Append(model.Token{Topic: 100 + i%7, Payload: i})
	}
	sess, reused := fp.CreateSession(doc)
	if reused != 260 {
		t.Fatalf("reused = %d, want 260", reused)
	}
	sess.PrefillRemaining()
	tail, err := fp.Store(sess)
	sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if tail.Base() != fpRoot {
		t.Fatal("stored context is not a copy-on-write tail of the fp32 root")
	}
	return map[string]string{
		"fp32 root": save(t, fp, fpRoot),
		"sq8 root":  save(t, q8, q8Root),
		"cow tail":  save(t, fp, tail),
	}
}

func TestVerify(t *testing.T) {
	for name, dir := range savedContexts(t) {
		t.Run(name, func(t *testing.T) {
			if err := verify(dir); err != nil {
				t.Fatalf("verify of an intact context: %v", err)
			}
			path := filepath.Join(dir, "L1H1.vals")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0x01 // one payload byte
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := verify(dir); err == nil {
				t.Fatal("verify passed a context with a flipped payload byte")
			}
		})
	}
}

func TestStat(t *testing.T) {
	dir := savedContexts(t)["fp32 root"]
	for _, name := range []string{"L1H0.keys", "L1H0.vals"} {
		if err := stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("stat %s: %v", name, err)
		}
	}
	if err := stat(filepath.Join(dir, "manifest.json")); err == nil {
		t.Fatal("stat accepted a file that is not a key or value record")
	}
}
