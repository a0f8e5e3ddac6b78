package core

import (
	"math"
	"testing"

	"repro/internal/attention"
	"repro/internal/devmem"
	"repro/internal/index/graph"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/query"
	"repro/internal/vec"
	"repro/internal/workload"
)

// quantDecodeFixture is decodeFixtureLen with SQ8 keys enabled.
func quantDecodeFixture(t testing.TB, p *pool.Pool, ctxLen int) (*DB, *Session, [][][]float32) {
	t.Helper()
	cfg := model.Default()
	cfg.Layers = 2
	cfg.QHeads = 4
	cfg.KVHeads = 2
	cfg.Vocab = 32
	m := model.New(cfg)
	win := attention.Window{Sinks: 4, Recent: 16}
	winBytes := int64(win.Sinks+win.Recent) * int64(cfg.Layers) * int64(cfg.KVHeads) * int64(cfg.HeadDim) * 4 * 2
	dev := devmem.New(m.WeightsBytes() + 2*winBytes + 4096)
	db, err := New(Config{
		Model:         m,
		Device:        dev,
		Window:        win,
		LongThreshold: 256,
		Graph:         graph.Config{Degree: 12, QueryKNN: 8, EfConstruction: 48},
		Pool:          p,
		QuantKeys:     true,
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

// TestQuantDecodeStepZeroAlloc extends the zero-allocation decode guard to
// QuantKeys: one steady-state decode step over snapped key rows must
// allocate nothing once the arenas are warm, and no decode path reranks.
func TestQuantDecodeStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool reuse; allocation counts are not meaningful")
	}
	db, sess, qs := quantDecodeFixture(t, pool.Serial(), 1024)
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
		t.Fatalf("steady-state quantized decode step allocated %.1f times per run, want 0", allocs)
	}
	if st := sess.Stats(); st.Reranked != 0 {
		t.Fatalf("decode over SQ8 keys reranked %d candidates, want 0", st.Reranked)
	}
}

// TestQuantDecodeStep4096ZeroAlloc extends the SQ8 guard to a 4096-token
// prefix under the default Config: layer 0's flat band scan runs as one
// group task per KV group, on the calling task rather than in chunk
// goroutines. A warm AttentionAllLayersInto on the serial pool allocates
// nothing.
func TestQuantDecodeStep4096ZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool reuse; allocation counts are not meaningful")
	}
	db, sess, qs := quantDecodeFixture(t, pool.Serial(), 4096)
	mc := db.Model().Config()
	outs := resultGrid(mc.Layers, mc.QHeads)
	step := func() { sess.AttentionAllLayersInto(qs, outs) }
	step()
	if p := outs[0][0].Plan; p.Query != query.KindDIPR || p.Index != query.IndexFlat {
		t.Fatalf("layer 0 planned %v; the guard must exercise the flat scan", p)
	}
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Fatalf("steady-state quantized step allocated %.1f times per run, want 0", allocs)
	}
}

// TestQuantRetrievalParity compares a QuantKeys DB against an fp32 DB on
// the same document and queries: recall@32 must be 1.0 — every fp32
// top-32 token is retrieved under SQ8, where a token swapped across the
// rank-32 boundary counts only if the fp32 score gap exceeds twice the
// snapping perturbation bound (within the bound the two planes may
// legitimately order the pair either way). Attention outputs must stay
// within the documented tolerance.
func TestQuantRetrievalParity(t *testing.T) {
	_, fpSess, qs := decodeFixture(t, pool.Serial())
	db, qSess, _ := quantDecodeFixture(t, pool.Serial(), 1024)
	mc := db.Model().Config()
	const topK = 32
	for l := 0; l < mc.Layers; l++ {
		for h := 0; h < mc.QHeads; h++ {
			kv := db.Model().KVGroup(h)
			want := fpSess.Attention(l, h, qs[l][h])
			got := qSess.Attention(l, h, qs[l][h])
			if r := quantRecall(fpSess, qSess, l, kv, qs[l][h], want.RetrievedIDs, got.RetrievedIDs, topK); r < 1 {
				t.Fatalf("layer %d head %d: recall@%d = %v, want 1.0", l, h, topK, r)
			}
			var maxDiff float64
			for i := range want.Output {
				if d := math.Abs(float64(want.Output[i] - got.Output[i])); d > maxDiff {
					maxDiff = d
				}
			}
			if maxDiff > 0.05 {
				t.Fatalf("layer %d head %d: attention outputs diverge by %v", l, h, maxDiff)
			}
		}
	}
}

// quantRecall computes recall@k of the SQ8 retrieval against the fp32
// retrieval, scoring both sets on the fp32 session's raw key plane and
// treating boundary swaps within twice the snapping perturbation bound as
// hits.
func quantRecall(fpSess, qSess *Session, layer, kv int, q []float32, fpIDs, qIDs []int, k int) float64 {
	if len(fpIDs) > k {
		fpIDs = fpIDs[:k]
	}
	if len(qIDs) > k {
		qIDs = qIDs[:k]
	}
	keys := fpSess.base.cache.Keys(layer, kv)
	got := make(map[int]bool, len(qIDs))
	boundary := float32(math.Inf(1))
	for _, id := range qIDs {
		got[id] = true
		if s := vec.Dot(q, keys.Row(id)); s < boundary {
			boundary = s
		}
	}
	tol := 2 * qSess.base.cache.QuantKeys(layer, kv).PlaneErrBound(q)
	hit := 0
	for _, id := range fpIDs {
		if got[id] || vec.Dot(q, keys.Row(id)) <= boundary+tol {
			hit++
		}
	}
	if len(fpIDs) == 0 {
		return 1
	}
	return float64(hit) / float64(len(fpIDs))
}

// TestQuantStoredBytesSplit pins the resident footprint under QuantKeys:
// the fp32 key and value planes only, the same bytes an fp32 DB holds for
// the same context — no int8 plane is kept beside the snapped rows.
func TestQuantStoredBytesSplit(t *testing.T) {
	db, _, _ := quantDecodeFixture(t, pool.Serial(), 1024)
	fpDB, _, _ := decodeFixture(t, pool.Serial())
	b, fp := db.StoredKVBytes(), fpDB.StoredKVBytes()
	if b.Keys == 0 || b.Values == 0 || b.QuantKeys != 0 {
		t.Fatalf("byte split %+v: want fp32 planes only", b)
	}
	if b != fp {
		t.Fatalf("SQ8 footprint %+v differs from fp32 footprint %+v", b, fp)
	}
}

// TestQuantSpillReloadBitwiseIdentical is the tier acceptance criterion
// under QuantKeys at the core level: evict → spill (packed codes + scales)
// → transparent reload, then every attention output matches a never-evicted
// quant DB bit for bit, and the spilled key files are about a quarter of
// the fp32 layout's.
func TestQuantSpillReloadBitwiseIdentical(t *testing.T) {
	mkDB := func(quant bool, budgetContexts int, dir string) *DB {
		mdl := testModel()
		mc := mdl.Config()
		perCtx := int64(400) * int64(mc.Layers) * int64(mc.KVHeads) * int64(mc.HeadDim) * 4 * 2
		perCtx += perCtx / 2 // index + quant plane headroom
		var budget int64
		if budgetContexts > 0 {
			budget = perCtx * int64(budgetContexts)
		}
		db, err := New(Config{
			Model:         mdl,
			Window:        attention.Window{Sinks: 4, Recent: 16},
			LongThreshold: 256,
			Graph:         graph.Config{Degree: 12, QueryKNN: 8, EfConstruction: 48},
			ContextBudget: budget,
			SpillDir:      dir,
			QuantKeys:     quant,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}

	doc := model.NewFiller(130, 400, 16, 32)
	doc.Plant(200, 9, 3, 1)
	filler := model.NewFiller(131, 400, 16, 32)

	attnAll := func(db *DB, sess *Session) [][]AttentionResult {
		mdl := db.Model()
		mc := mdl.Config()
		out := make([][]AttentionResult, mc.Layers)
		for l := range out {
			out[l] = make([]AttentionResult, mc.QHeads)
			for h := 0; h < mc.QHeads; h++ {
				q := mdl.QueryVector(doc, l, h, model.QuerySpec{FocusTopics: []int{9}, ContextLen: doc.Len()})
				out[l][h] = sess.Attention(l, h, q)
			}
		}
		return out
	}

	// Tiered quant DB: importing filler evicts doc's context to disk.
	tiered := mkDB(true, 1, t.TempDir())
	if _, err := tiered.ImportDoc(doc); err != nil {
		t.Fatal(err)
	}
	if _, err := tiered.ImportDoc(filler); err != nil {
		t.Fatal(err)
	}
	ts := tiered.TierStats()
	if ts.SpilledContexts != 1 {
		t.Fatalf("spilled contexts = %d, want 1", ts.SpilledContexts)
	}
	quantSpillBytes := ts.SpilledDiskBytes

	sess, reused := tiered.CreateSession(doc)
	if reused != doc.Len() || !sess.BaseFromSpill() {
		t.Fatalf("reload reused %d (fromSpill=%v)", reused, sess.BaseFromSpill())
	}
	got := attnAll(tiered, sess)
	sess.Close()

	// Reference: quant DB that never evicted.
	ref := mkDB(true, 0, t.TempDir())
	if _, err := ref.ImportDoc(doc); err != nil {
		t.Fatal(err)
	}
	refSess, refReused := ref.CreateSession(doc)
	if refReused != doc.Len() {
		t.Fatalf("reference reused %d", refReused)
	}
	want := attnAll(ref, refSess)
	refSess.Close()

	for l := range want {
		for h := range want[l] {
			g, w := got[l][h], want[l][h]
			if g.Plan != w.Plan || g.Retrieved != w.Retrieved || g.Attended != w.Attended {
				t.Fatalf("layer %d head %d: execution diverges: %+v vs %+v", l, h, g.Plan, w.Plan)
			}
			for i := range w.RetrievedIDs {
				if g.RetrievedIDs[i] != w.RetrievedIDs[i] {
					t.Fatalf("layer %d head %d: retrieved ids diverge after reload", l, h)
				}
			}
			for i := range w.Output {
				if g.Output[i] != w.Output[i] {
					t.Fatalf("layer %d head %d dim %d: %v != %v (quant spill round trip not bitwise identical)",
						l, h, i, g.Output[i], w.Output[i])
				}
			}
		}
	}

	// The fp32 layout spills the same context in ~4x the key bytes.
	fpTiered := mkDB(false, 1, t.TempDir())
	if _, err := fpTiered.ImportDoc(doc); err != nil {
		t.Fatal(err)
	}
	if _, err := fpTiered.ImportDoc(filler); err != nil {
		t.Fatal(err)
	}
	fpSpillBytes := fpTiered.TierStats().SpilledDiskBytes
	if fpSpillBytes <= quantSpillBytes {
		t.Fatalf("quant spill (%d bytes) not smaller than fp32 spill (%d bytes)", quantSpillBytes, fpSpillBytes)
	}
}

// TestQuantConfigBetaValidation covers the Config-level input validation
// added with the DIPRSConfig satellite.
func TestQuantConfigBetaValidation(t *testing.T) {
	mdl := testModel()
	if _, err := New(Config{Model: mdl, Beta: -1}); err == nil {
		t.Error("negative Beta accepted")
	}
	if _, err := New(Config{Model: mdl, Beta: float32(math.NaN())}); err == nil {
		t.Error("NaN Beta accepted")
	}
}
