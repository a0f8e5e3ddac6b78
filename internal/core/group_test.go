package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/attention"
	"repro/internal/devmem"
	"repro/internal/index/graph"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/query"
	"repro/internal/workload"
)

// groupFixture is one DB and three sessions over it for the group-task
// equivalence test: a fully reused prefix with a short tail, a partial
// reuse (filtered plans), and a session over a copy-on-write chain. The
// model has 8 query heads in groups of g; longThreshold picks DIPR plans
// (flat on layer 0, graph elsewhere) or full plans on every layer.
func groupFixture(t *testing.T, p *pool.Pool, g, longThreshold int) (*DB, []*Session) {
	t.Helper()
	cfg := model.Default()
	cfg.Layers = 2
	cfg.QHeads = 8
	cfg.KVHeads = 8 / g
	cfg.Vocab = 32
	m := model.New(cfg)
	win := attention.Window{Sinks: 4, Recent: 16}
	winBytes := int64(win.Sinks+win.Recent) * int64(cfg.Layers) * int64(cfg.KVHeads) * int64(cfg.HeadDim) * 4 * 2
	db, err := New(Config{
		Model: m,
		// Room for every session's window but never a coarse block cache.
		Device:        devmem.New(m.WeightsBytes() + 8*winBytes + 4096),
		Window:        win,
		LongThreshold: longThreshold,
		Graph:         graph.Config{Degree: 8, QueryKNN: 4, EfConstruction: 24},
		Pool:          p,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	prof, _ := workload.ProfileByName("Retr.P")
	doc := workload.Generate(prof, 5, 640, 64, 32).Doc
	if _, err := db.ImportDoc(doc); err != nil {
		t.Fatal(err)
	}
	open := func(d *model.Document) *Session {
		s, reused := db.CreateSession(d)
		if reused == 0 {
			t.Fatal("expected prefix reuse")
		}
		s.PrefillRemaining()
		t.Cleanup(func() { s.Close() })
		return s
	}
	full := open(diverge(doc, doc.Len(), 12, 100))
	partial := open(diverge(doc, 500, 20, 100))
	writer, _ := db.CreateSession(diverge(doc, 450, 30, 200))
	writer.PrefillRemaining()
	cow, err := db.Store(writer)
	if err != nil {
		t.Fatal(err)
	}
	writer.Close()
	chainDoc := &model.Document{Seed: cow.Doc().Seed, Tokens: append([]model.Token(nil), cow.Doc().Tokens...)}
	for i := 0; i < 10; i++ {
		chainDoc.Append(model.Token{Topic: 300 + i%5, Payload: i})
	}
	chain := open(chainDoc)
	if chain.base != cow || len(chain.mids) == 0 || !partial.PartialReuse() {
		t.Fatal("fixture must hold a copy-on-write chain session and a partial-reuse session")
	}
	return db, []*Session{full, partial, chain}
}

func groupQueries(m *model.Model, s *Session) [][][]float32 {
	mc := m.Config()
	qs := make([][][]float32, mc.Layers)
	for l := range qs {
		qs[l] = make([][]float32, mc.QHeads)
		for h := range qs[l] {
			qs[l][h] = m.QueryVector(s.Doc(), l, h, model.QuerySpec{FocusTopics: []int{3, 7}, ContextLen: s.Doc().Len()})
		}
	}
	return qs
}

func resultGrid(layers, heads int) [][]AttentionResult {
	out := make([][]AttentionResult, layers)
	for l := range out {
		out[l] = make([]AttentionResult, heads)
	}
	return out
}

// sameResult reports how got differs from want, bit for bit, or "".
func sameResult(got, want *AttentionResult) string {
	switch {
	case got.Plan != want.Plan:
		return fmt.Sprintf("plan %v vs %v", got.Plan, want.Plan)
	case got.Retrieved != want.Retrieved || got.Explored != want.Explored || got.Attended != want.Attended:
		return fmt.Sprintf("facts %d/%d/%d vs %d/%d/%d", got.Retrieved, got.Explored, got.Attended,
			want.Retrieved, want.Explored, want.Attended)
	case math.Float64bits(got.LSE) != math.Float64bits(want.LSE):
		return fmt.Sprintf("LSE %v vs %v", got.LSE, want.LSE)
	case len(got.Output) != len(want.Output) || len(got.RetrievedIDs) != len(want.RetrievedIDs):
		return "result lengths differ"
	}
	for i := range want.Output {
		if math.Float32bits(got.Output[i]) != math.Float32bits(want.Output[i]) {
			return fmt.Sprintf("output dim %d: %v vs %v", i, got.Output[i], want.Output[i])
		}
	}
	for i := range want.RetrievedIDs {
		if got.RetrievedIDs[i] != want.RetrievedIDs[i] {
			return fmt.Sprintf("retrieved id %d: %d vs %d", i, got.RetrievedIDs[i], want.RetrievedIDs[i])
		}
	}
	return ""
}

// statsDelta is the change in a session's counters across fn.
func statsDelta(s *Session, fn func()) Stats {
	before := s.Stats()
	fn()
	after := s.Stats()
	d := Stats{
		Plans:           map[string]int{},
		Retrieved:       after.Retrieved - before.Retrieved,
		Explored:        after.Explored - before.Explored,
		Queries:         after.Queries - before.Queries,
		FlatFallbacks:   after.FlatFallbacks - before.FlatFallbacks,
		CoarseFallbacks: after.CoarseFallbacks - before.CoarseFallbacks,
		Reranked:        after.Reranked - before.Reranked,
	}
	for k, v := range after.Plans {
		if v != before.Plans[k] {
			d.Plans[k] = v - before.Plans[k]
		}
	}
	return d
}

// TestGroupTasksMatchPerHead pins the (layer, KV group) fan-out:
// AttentionAllInto, AttentionAllLayersInto and a 3-item StepWave return,
// head for head, exactly what per-head Session.Attention returns, and
// count the same plans and work — for GQA group sizes 1, 2, 4 and 8,
// layer-0 flat plans and full plans, a fully reused, a partial-reuse and a
// copy-on-write chain session, on the serial and a spawning pool.
func TestGroupTasksMatchPerHead(t *testing.T) {
	for _, g := range []int{1, 2, 4, 8} {
		for _, plans := range []struct {
			name      string
			threshold int
		}{{"dipr", 256}, {"full", 1 << 20}} {
			for _, p := range []*pool.Pool{pool.Serial(), pool.New(4)} {
				name := fmt.Sprintf("g=%d/%s/pool=%d", g, plans.name, p.Size())
				t.Run(name, func(t *testing.T) {
					db, sessions := groupFixture(t, p, g, plans.threshold)
					m := db.Model()
					mc := m.Config()
					items := make([]StepItem, len(sessions))
					wants := make([][][]AttentionResult, len(sessions))
					for si, s := range sessions {
						qs := groupQueries(m, s)
						for l := 0; l < mc.Layers; l++ {
							grouped := plans.name == "full" || l == 0
							if _, ok := s.groupPlan(l); ok != grouped {
								t.Fatalf("session %d layer %d: group plan %v, want %v", si, l, ok, grouped)
							}
						}
						want := resultGrid(mc.Layers, mc.QHeads)
						perHead := statsDelta(s, func() {
							for l := range qs {
								for h := range qs[l] {
									want[l][h] = s.Attention(l, h, qs[l][h])
								}
							}
						})
						if plans.name == "dipr" && want[0][0].Plan.Index != query.IndexFlat {
							t.Fatalf("session %d layer 0 planned %v, want dipr+flat", si, want[0][0].Plan)
						}
						check := func(form string, got [][]AttentionResult) {
							t.Helper()
							for l := range want {
								for h := range want[l] {
									if d := sameResult(&got[l][h], &want[l][h]); d != "" {
										t.Fatalf("session %d %s layer %d head %d: %s", si, form, l, h, d)
									}
								}
							}
						}
						all := resultGrid(mc.Layers, mc.QHeads)
						for l := range qs {
							s.AttentionAllInto(l, qs[l], all[l])
						}
						check("AttentionAllInto", all)
						layers := resultGrid(mc.Layers, mc.QHeads)
						grouped := statsDelta(s, func() { s.AttentionAllLayersInto(qs, layers) })
						check("AttentionAllLayersInto", layers)
						if fmt.Sprint(grouped) != fmt.Sprint(perHead) {
							t.Fatalf("session %d: counters %+v, per-head %+v", si, grouped, perHead)
						}
						items[si] = StepItem{Sess: s, Queries: qs, Out: resultGrid(mc.Layers, mc.QHeads), AttendOnly: true}
						wants[si] = want
					}
					StepWave(p, items)
					for si := range items {
						for l := range wants[si] {
							for h := range wants[si][l] {
								if d := sameResult(&items[si].Out[l][h], &wants[si][l][h]); d != "" {
									t.Fatalf("session %d StepWave layer %d head %d: %s", si, l, h, d)
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestGroupStepZeroAllocWorkers extends the zero-alloc decode guard to a
// 4096-token context with the default Config: the group task scans the
// flat prefix inline, so a warm AttentionAllLayersInto on the serial pool
// allocates nothing.
func TestGroupStepZeroAllocWorkers(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool reuse; allocation counts are not meaningful")
	}
	db, sess, qs := decodeFixtureLen(t, pool.Serial(), 4096)
	mc := db.Model().Config()
	outs := resultGrid(mc.Layers, mc.QHeads)
	step := func() { sess.AttentionAllLayersInto(qs, outs) }
	step()
	if p := outs[0][0].Plan; p.Query != query.KindDIPR || p.Index != query.IndexFlat {
		t.Fatalf("layer 0 planned %v; the guard must exercise the flat scan", p)
	}
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Fatalf("steady-state step allocated %.1f times per run, want 0", allocs)
	}
}
