package core

import (
	"testing"

	"repro/internal/attention"
	"repro/internal/index/graph"
	"repro/internal/model"
	"repro/internal/pool"
)

func stepTestDB(t *testing.T, p *pool.Pool) *DB {
	t.Helper()
	db, err := New(Config{
		Model:         testModel(),
		Window:        attention.Window{Sinks: 4, Recent: 16},
		LongThreshold: 256,
		Graph:         graph.Config{Degree: 12, QueryKNN: 8, EfConstruction: 48},
		Pool:          p,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func stepQueries(m *model.Model, doc *model.Document, step int) [][][]float32 {
	mc := m.Config()
	qs := make([][][]float32, mc.Layers)
	for l := range qs {
		qs[l] = make([][]float32, mc.QHeads)
		for h := range qs[l] {
			qs[l][h] = m.QueryVector(doc, l, h, model.QuerySpec{
				FocusTopics: []int{3}, Step: step, ContextLen: doc.Len()})
		}
	}
	return qs
}

// TestStepMatchesV1Path is the core half of the protocol-identity
// guarantee: one StepInto produces bitwise-identical outputs to the v1
// sequence it replaces — AppendToken followed by one AttentionAllInto per
// layer — on a session over the same context.
func TestStepMatchesV1Path(t *testing.T) {
	db := stepTestDB(t, pool.Default())
	doc := model.NewFiller(7, 500, 8, 32)
	if _, err := db.ImportDoc(doc); err != nil {
		t.Fatal(err)
	}
	mc := db.Model().Config()

	v1, reused := db.CreateSession(doc)
	defer v1.Close()
	v2, reused2 := db.CreateSession(doc)
	defer v2.Close()
	if reused != doc.Len() || reused2 != doc.Len() {
		t.Fatalf("reuse = %d/%d, want %d", reused, reused2, doc.Len())
	}

	for step := 0; step < 3; step++ {
		tok := model.Token{Topic: 3, Payload: step + 1}
		qs := stepQueries(db.Model(), doc, step)

		// v1: update, then per-layer attention_all.
		v1.AppendToken(tok)
		want := make([][]AttentionResult, mc.Layers)
		for l := 0; l < mc.Layers; l++ {
			want[l] = v1.AttentionAll(l, qs[l])
		}

		got := resultGrid(mc.Layers, mc.QHeads)
		v2.StepInto(tok, qs, got)

		for l := range want {
			for h := range want[l] {
				w, g := want[l][h], got[l][h]
				if w.Plan != g.Plan || w.Retrieved != g.Retrieved || w.Attended != g.Attended {
					t.Fatalf("step %d L%dH%d metadata: v1 %+v, v2 %+v", step, l, h, w, g)
				}
				if len(w.Output) != len(g.Output) {
					t.Fatalf("step %d L%dH%d output dims %d vs %d", step, l, h, len(w.Output), len(g.Output))
				}
				for i := range w.Output {
					if w.Output[i] != g.Output[i] {
						t.Fatalf("step %d L%dH%d output[%d]: v1 %x, v2 %x",
							step, l, h, i, w.Output[i], g.Output[i])
					}
				}
			}
		}
		if v1.ContextLen(0) != v2.ContextLen(0) {
			t.Fatalf("context diverged: %d vs %d", v1.ContextLen(0), v2.ContextLen(0))
		}
	}
}

// TestStepParallelMatchesSerial pins the layers×heads fan-out: the same
// step on a spawning pool and on the Serial pool produces identical bits.
func TestStepParallelMatchesSerial(t *testing.T) {
	doc := model.NewFiller(11, 400, 8, 32)
	run := func(p *pool.Pool) [][]AttentionResult {
		db := stepTestDB(t, p)
		if _, err := db.ImportDoc(doc); err != nil {
			t.Fatal(err)
		}
		sess, _ := db.CreateSession(doc)
		defer sess.Close()
		mc := db.Model().Config()
		out := resultGrid(mc.Layers, mc.QHeads)
		sess.StepInto(model.Token{Topic: 5, Payload: 9}, stepQueries(db.Model(), doc, 0), out)
		return out
	}
	serial := run(pool.Serial())
	parallel := run(pool.New(4))
	for l := range serial {
		for h := range serial[l] {
			a, b := serial[l][h], parallel[l][h]
			if a.Plan != b.Plan || a.Attended != b.Attended {
				t.Fatalf("L%dH%d metadata: serial %+v, parallel %+v", l, h, a, b)
			}
			for i := range a.Output {
				if a.Output[i] != b.Output[i] {
					t.Fatalf("L%dH%d output[%d]: serial %x, parallel %x", l, h, i, a.Output[i], b.Output[i])
				}
			}
		}
	}
}

func TestAttentionAllLayersIntoValidation(t *testing.T) {
	db := stepTestDB(t, pool.Serial())
	doc := model.NewFiller(13, 64, 8, 32)
	sess, _ := db.CreateSession(doc)
	defer sess.Close()
	sess.PrefillRemaining()
	mc := db.Model().Config()

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	qs := stepQueries(db.Model(), doc, 0)
	out := make([][]AttentionResult, mc.Layers)
	for l := range out {
		out[l] = make([]AttentionResult, mc.QHeads)
	}
	mustPanic("row count mismatch", func() { sess.AttentionAllLayersInto(qs, out[:1]) })
	mustPanic("ragged heads", func() {
		bad := [][][]float32{qs[0], qs[1][:1]}
		sess.AttentionAllLayersInto(bad, out)
	})
	mustPanic("slot mismatch", func() {
		short := [][]AttentionResult{out[0], out[1][:1]}
		sess.AttentionAllLayersInto(qs, short)
	})

	// Degenerate shapes are no-ops, not panics.
	sess.AttentionAllLayersInto(nil, nil)
	sess.AttentionAllLayersInto([][][]float32{{}, {}}, [][]AttentionResult{{}, {}})
}
