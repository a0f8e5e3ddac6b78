package core

import (
	"testing"

	"repro/internal/attention"
	"repro/internal/devmem"
	"repro/internal/index/graph"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/query"
	"repro/internal/workload"
)

// decodeFixture builds the steady-state decode setting of the acceptance
// criteria: a fully reused long context (DIPR plans on every layer — flat
// on layer 0, graph elsewhere), a device too small for the coarse block
// cache, and a configurable pool.
func decodeFixture(t testing.TB, p *pool.Pool) (*DB, *Session, [][][]float32) {
	t.Helper()
	return decodeFixtureLen(t, p, 1024)
}

// decodeFixtureLen is decodeFixture over a ctxLen-token context.
func decodeFixtureLen(t testing.TB, p *pool.Pool, ctxLen int) (*DB, *Session, [][][]float32) {
	t.Helper()
	cfg := model.Default()
	cfg.Layers = 2
	cfg.QHeads = 4
	cfg.KVHeads = 2
	cfg.Vocab = 32
	m := model.New(cfg)
	win := attention.Window{Sinks: 4, Recent: 16}
	winBytes := int64(win.Sinks+win.Recent) * int64(cfg.Layers) * int64(cfg.KVHeads) * int64(cfg.HeadDim) * 4 * 2
	// Room for weights and the session window but never the coarse block
	// cache, so the optimizer plans DIPR instead of coarse top-k.
	dev := devmem.New(m.WeightsBytes() + 2*winBytes + 4096)
	db, err := New(Config{
		Model:         m,
		Device:        dev,
		Window:        win,
		LongThreshold: 256,
		Graph:         graph.Config{Degree: 12, QueryKNN: 8, EfConstruction: 48},
		Pool:          p,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	prof, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(prof, 9, ctxLen, 64, 32)
	if _, err := db.ImportDoc(inst.Doc); err != nil {
		t.Fatal(err)
	}
	sess, reused := db.CreateSession(inst.Doc)
	if reused != inst.Doc.Len() {
		t.Fatalf("reused %d of %d tokens, want full reuse", reused, inst.Doc.Len())
	}
	t.Cleanup(func() { sess.Close() })

	qs := make([][][]float32, cfg.Layers)
	for l := range qs {
		qs[l] = make([][]float32, cfg.QHeads)
		for h := range qs[l] {
			qs[l][h] = m.QueryVector(inst.Doc, l, h, model.QuerySpec{
				FocusTopics: inst.Question, ContextLen: inst.Doc.Len()})
		}
	}
	return db, sess, qs
}

// TestDecodeStepZeroAlloc is the PR's headline regression guard: one
// steady-state decode step — attention across every layer and head of a
// token — must allocate nothing once the arenas are warm.
func TestDecodeStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool reuse; allocation counts are not meaningful")
	}
	db, sess, qs := decodeFixture(t, pool.Serial())
	mc := db.Model().Config()
	outs := make([][]AttentionResult, mc.Layers)
	for l := range outs {
		outs[l] = make([]AttentionResult, mc.QHeads)
	}
	step := func() {
		for l := 0; l < mc.Layers; l++ {
			sess.AttentionAllInto(l, qs[l], outs[l])
		}
	}
	step() // warm every arena and result buffer
	for l := 0; l < mc.Layers; l++ {
		for h := 0; h < mc.QHeads; h++ {
			if outs[l][h].Plan.Query != query.KindDIPR {
				t.Fatalf("layer %d head %d planned %v; fixture must exercise the DIPR path", l, h, outs[l][h].Plan)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Fatalf("steady-state decode step allocated %.1f times per run, want 0", allocs)
	}
}

// TestAttentionIntoMatchesAttention pins that the arena path returns
// exactly what the allocating path does, head by head.
func TestAttentionIntoMatchesAttention(t *testing.T) {
	db, sess, qs := decodeFixture(t, pool.Serial())
	mc := db.Model().Config()
	row := make([]AttentionResult, mc.QHeads)
	for l := 0; l < mc.Layers; l++ {
		sess.AttentionAllInto(l, qs[l], row) // reused row across layers
		for h := 0; h < mc.QHeads; h++ {
			want := sess.Attention(l, h, qs[l][h])
			res := &row[h]
			if res.Plan != want.Plan || res.Retrieved != want.Retrieved ||
				res.Explored != want.Explored || res.Attended != want.Attended {
				t.Fatalf("layer %d head %d: execution facts diverge: %+v vs %+v", l, h, res, want)
			}
			for i := range want.Output {
				if res.Output[i] != want.Output[i] {
					t.Fatalf("layer %d head %d dim %d: %v != %v", l, h, i, res.Output[i], want.Output[i])
				}
			}
			for i := range want.RetrievedIDs {
				if res.RetrievedIDs[i] != want.RetrievedIDs[i] {
					t.Fatalf("layer %d head %d: retrieved ids diverge", l, h)
				}
			}
		}
	}
}

// TestAttentionAllIntoParallelMatchesSerial asserts the pooled decode
// states keep the fanned-out arena path bitwise-identical to the serial
// one; run under -race it is also the data-race guard for scratch pooling.
func TestAttentionAllIntoParallelMatchesSerial(t *testing.T) {
	_, serialSess, qs := decodeFixture(t, pool.Serial())
	db, parSess, _ := decodeFixture(t, pool.New(8))
	mc := db.Model().Config()
	for l := 0; l < mc.Layers; l++ {
		serial := make([]AttentionResult, mc.QHeads)
		serialSess.AttentionAllInto(l, qs[l], serial)
		parallel := make([]AttentionResult, mc.QHeads)
		parSess.AttentionAllInto(l, qs[l], parallel)
		for h := range serial {
			if serial[h].Plan != parallel[h].Plan || serial[h].Attended != parallel[h].Attended {
				t.Fatalf("layer %d head %d: plans/facts diverge", l, h)
			}
			for i := range serial[h].Output {
				if serial[h].Output[i] != parallel[h].Output[i] {
					t.Fatalf("layer %d head %d dim %d: parallel output diverges", l, h, i)
				}
			}
		}
	}
}
