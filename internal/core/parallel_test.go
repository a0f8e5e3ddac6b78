package core

import (
	"sync"
	"testing"

	"repro/internal/index/graph"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/workload"
)

// parallelSession builds a session whose attention exercises the long-path
// machinery (reused prefix + DIPR retrieval + tail) so the parallel fan-out
// covers every partial, then prefills it.
func parallelSession(t *testing.T, p *pool.Pool) (*DB, *Session) {
	t.Helper()
	db, err := New(Config{
		Model:         testModel(),
		LongThreshold: 256,
		Graph:         graph.Config{Degree: 12, QueryKNN: 8, EfConstruction: 48},
		Pool:          p,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	prof, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(prof, 11, 700, 64, 32)
	if _, err := db.ImportDoc(inst.Doc); err != nil {
		t.Fatal(err)
	}
	longer := &model.Document{Seed: inst.Doc.Seed, Tokens: append(append([]model.Token(nil), inst.Doc.Tokens...), model.NewFiller(11, 40, 8, 32).Tokens...)}
	sess, reused := db.CreateSession(longer)
	if reused == 0 {
		t.Fatal("expected prefix reuse")
	}
	t.Cleanup(func() { sess.Close() })
	sess.PrefillRemaining()
	return db, sess
}

// TestAttentionAllParallelMatchesSerial asserts the pooled fan-out of
// AttentionAll is bitwise-identical to calling Attention head by head:
// parallelism must change wall-clock time only, never outputs.
func TestAttentionAllParallelMatchesSerial(t *testing.T) {
	db, sess := parallelSession(t, pool.New(8))
	m := db.Model()
	mc := m.Config()
	for layer := 0; layer < mc.Layers; layer++ {
		qs := make([][]float32, mc.QHeads)
		for h := range qs {
			qs[h] = m.QueryVector(sess.Doc(), layer, h, model.QuerySpec{FocusTopics: []int{3}, ContextLen: sess.Doc().Len()})
		}
		serial := make([]AttentionResult, len(qs))
		for h, q := range qs {
			serial[h] = sess.Attention(layer, h, q)
		}
		parallel := sess.AttentionAll(layer, qs)
		for h := range qs {
			if serial[h].Plan != parallel[h].Plan {
				t.Fatalf("layer %d head %d: plan %v (serial) vs %v (parallel)", layer, h, serial[h].Plan, parallel[h].Plan)
			}
			if len(serial[h].Output) != len(parallel[h].Output) {
				t.Fatalf("layer %d head %d: output dims differ", layer, h)
			}
			for i := range serial[h].Output {
				if serial[h].Output[i] != parallel[h].Output[i] {
					t.Fatalf("layer %d head %d dim %d: %v (serial) != %v (parallel)", layer, h, i, serial[h].Output[i], parallel[h].Output[i])
				}
			}
			if serial[h].Retrieved != parallel[h].Retrieved || serial[h].Attended != parallel[h].Attended {
				t.Fatalf("layer %d head %d: execution facts diverge", layer, h)
			}
		}
	}
}

// TestPrefillParallelMatchesSerial asserts the per-layer parallel prefill
// sweep ingests exactly the KV a size-1 (serial) pool would.
func TestPrefillParallelMatchesSerial(t *testing.T) {
	_, serialSess := parallelSession(t, pool.New(1))
	db, parSess := parallelSession(t, pool.New(8))
	mc := db.Model().Config()
	for l := 0; l < mc.Layers; l++ {
		if serialSess.ContextLen(l) != parSess.ContextLen(l) {
			t.Fatalf("layer %d: context len %d (serial) vs %d (parallel)", l, serialSess.ContextLen(l), parSess.ContextLen(l))
		}
		for h := 0; h < mc.KVHeads; h++ {
			sk, pk := serialSess.tail.Keys(l, h), parSess.tail.Keys(l, h)
			if sk.Rows() != pk.Rows() {
				t.Fatalf("layer %d head %d: tail rows differ", l, h)
			}
			for r := 0; r < sk.Rows(); r++ {
				srow, prow := sk.Row(r), pk.Row(r)
				for i := range srow {
					if srow[i] != prow[i] {
						t.Fatalf("layer %d head %d row %d: tail KV diverges", l, h, r)
					}
				}
			}
		}
	}
}

// TestAttentionAllConcurrentCallers hammers one session with parallel
// AttentionAll and Stats calls; run under -race this is the session-level
// thread-safety regression for the fan-out refactor.
func TestAttentionAllConcurrentCallers(t *testing.T) {
	db, sess := parallelSession(t, pool.New(4))
	m := db.Model()
	mc := m.Config()
	qs := make([][]float32, mc.QHeads)
	for h := range qs {
		qs[h] = m.QueryVector(sess.Doc(), 1, h, model.QuerySpec{FocusTopics: []int{5}, ContextLen: sess.Doc().Len()})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				sess.AttentionAll(1, qs)
				sess.Stats()
			}
		}()
	}
	wg.Wait()
	if got := sess.Stats().Queries; got != int64(4*3*mc.QHeads) {
		t.Fatalf("stats recorded %d queries, want %d", got, 4*3*mc.QHeads)
	}
}
