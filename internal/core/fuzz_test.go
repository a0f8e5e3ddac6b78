package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/attention"
	"repro/internal/index/graph"
	"repro/internal/model"
)

// FuzzLoadContextManifest replaces the manifest of a saved fp32 context and
// of a saved SQ8 context with arbitrary bytes and loads each into a fresh
// DB. The manifest is operator-editable JSON whose geometry sizes
// allocations and indexes graph slots: LoadContext must return a context or
// an error, never panic. The seeds are both valid manifests and the layout
// older builds wrote for a range-sharded context, plus one crasher: a
// manifest claiming more tokens than its files hold.
func FuzzLoadContextManifest(f *testing.F) {
	m := testModel()
	newDB := func(t testing.TB, quant bool) *DB {
		db, err := New(Config{
			Model:         m,
			Window:        attention.Window{Sinks: 4, Recent: 16},
			LongThreshold: 256,
			Graph:         graph.Config{Degree: 8, QueryKNN: 4, EfConstruction: 16},
			QuantKeys:     quant,
		})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	dirs := make(map[bool]string, 2)
	for _, quant := range []bool{false, true} {
		db := newDB(f, quant)
		ctx, err := db.ImportDoc(model.NewFiller(81, 16, 4, 32))
		if err != nil {
			f.Fatal(err)
		}
		dir := filepath.Join(f.TempDir(), "ctx")
		if err := db.SaveContext(ctx, dir); err != nil {
			f.Fatal(err)
		}
		db.Close()
		// The unmodified directory must load, so the seeds reach past the
		// manifest checks into the file reads.
		fresh := newDB(f, quant)
		if _, err := fresh.LoadContext(dir); err != nil {
			f.Fatal(err)
		}
		fresh.Close()
		raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
		if err != nil {
			f.Fatal(err)
		}
		// Compact seeds keep each mutation and minimization pass cheap.
		var compact bytes.Buffer
		if err := json.Compact(&compact, raw); err != nil {
			f.Fatal(err)
		}
		f.Add(compact.Bytes())
		f.Add(shardedManifest(f, compact.Bytes(), []int32{8, 16}))
		f.Add(inflatedManifest(f, compact.Bytes()))
		dirs[quant] = dir
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for quant, dir := range dirs {
			if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			db := newDB(t, quant)
			ctx, err := db.LoadContext(dir)
			if err == nil && ctx == nil {
				t.Fatal("LoadContext returned neither a context nor an error")
			}
			db.Close()
		}
	})
}

// inflatedManifest appends tokens the saved files do not hold and points
// the first graph entry past the real rows but inside the claimed ones:
// the entry passes the manifest's range check, so the row count on disk
// must be checked before the graph is rebuilt.
func inflatedManifest(t testing.TB, raw []byte) []byte {
	t.Helper()
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	rows := len(man.Tokens)
	for i := 0; i < rows; i++ {
		man.Tokens = append(man.Tokens, model.Token{Topic: 1})
	}
	man.Entries[0] = int32(rows + 1)
	out, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
