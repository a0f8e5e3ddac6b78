package core

import (
	"math"
	"testing"

	"repro/internal/attention"
	"repro/internal/devmem"
	"repro/internal/index/graph"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/vec"
)

func testModel() *model.Model {
	cfg := model.Default()
	cfg.Layers = 2
	cfg.QHeads = 4
	cfg.KVHeads = 2
	cfg.HeadDim = 128
	cfg.Vocab = 32
	return model.New(cfg)
}

func testDB(t *testing.T, dev *devmem.Device) *DB {
	t.Helper()
	db, err := New(Config{
		Model:         testModel(),
		Device:        dev,
		Window:        attention.Window{Sinks: 4, Recent: 16},
		LongThreshold: 256,
		Graph:         graph.Config{Degree: 12, QueryKNN: 8, EfConstruction: 48},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestNewRequiresModel(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("DB created without model")
	}
}

func TestWeightsRegisteredOnDevice(t *testing.T) {
	dev := devmem.New(0)
	db := testDB(t, dev)
	if got := dev.UsedBy(devmem.Weights); got != db.Model().WeightsBytes() {
		t.Errorf("weights on device = %d, want %d", got, db.Model().WeightsBytes())
	}
}

func TestImportAndFullReuse(t *testing.T) {
	db := testDB(t, nil)
	doc := model.NewFiller(1, 600, 8, 32)
	ctx, err := db.ImportDoc(doc)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Len() != 600 || db.NumContexts() != 1 {
		t.Fatalf("ctx len %d, contexts %d", ctx.Len(), db.NumContexts())
	}
	if ctx.IndexBytes() <= 0 {
		t.Error("no index built on import")
	}

	sess, reused := db.CreateSession(doc)
	defer sess.Close()
	if reused != 600 {
		t.Fatalf("reused = %d, want 600", reused)
	}
	if sess.PartialReuse() {
		t.Error("full reuse flagged as partial")
	}
}

func TestImportLengthMismatch(t *testing.T) {
	db := testDB(t, nil)
	doc := model.NewFiller(1, 100, 8, 32)
	short := db.Model().BuildKV(doc.Slice(50))
	if _, err := db.Import(doc, short); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestPartialReuseDetection(t *testing.T) {
	db := testDB(t, nil)
	stored := model.NewFiller(2, 500, 8, 32)
	if _, err := db.ImportDoc(stored); err != nil {
		t.Fatal(err)
	}
	// New doc: same first 300 tokens, then diverges.
	newDoc := &model.Document{Seed: stored.Seed, Tokens: append([]model.Token(nil), stored.Tokens[:300]...)}
	newDoc.Append(model.Token{Topic: 100, Payload: 1})
	sess, reused := db.CreateSession(newDoc)
	defer sess.Close()
	if reused != 300 {
		t.Fatalf("reused = %d, want 300", reused)
	}
	if !sess.PartialReuse() {
		t.Error("partial reuse not flagged")
	}
}

func TestNoReuseAcrossSeeds(t *testing.T) {
	db := testDB(t, nil)
	stored := model.NewFiller(3, 200, 8, 32)
	if _, err := db.ImportDoc(stored); err != nil {
		t.Fatal(err)
	}
	other := model.NewFiller(4, 200, 8, 32)
	sess, reused := db.CreateSession(other)
	defer sess.Close()
	if reused != 0 {
		t.Errorf("reused = %d across different seeds", reused)
	}
}

func TestPrefillAndUpdate(t *testing.T) {
	db := testDB(t, nil)
	doc := model.NewFiller(5, 100, 8, 32)
	sess, _ := db.CreateSession(doc)
	defer sess.Close()
	fed := sess.PrefillRemaining()
	if fed != 100 {
		t.Fatalf("prefilled %d tokens", fed)
	}
	if sess.ContextLen(0) != 100 || sess.ContextLen(1) != 100 {
		t.Errorf("context lens = %d/%d", sess.ContextLen(0), sess.ContextLen(1))
	}
	sess.AppendToken(model.Token{Topic: 1, Payload: 2})
	if sess.ContextLen(0) != 101 {
		t.Errorf("len after append = %d", sess.ContextLen(0))
	}
}

// TestShortContextFullAttentionMatchesReference: on a short context the
// optimizer picks full attention and the session output must equal direct
// full attention over the substrate's KV.
func TestShortContextFullAttentionMatchesReference(t *testing.T) {
	db := testDB(t, nil)
	m := db.Model()
	doc := model.NewFiller(6, 120, 8, 32)
	sess, _ := db.CreateSession(doc)
	defer sess.Close()
	sess.PrefillRemaining()

	cache := m.BuildKV(doc)
	for _, qh := range []int{0, 3} {
		q := m.QueryVector(doc, 1, qh, model.QuerySpec{FocusTopics: []int{2}, ContextLen: 120})
		res := sess.Attention(1, qh, q)
		if res.Plan.Query != query.KindFull {
			t.Fatalf("plan = %v, want full", res.Plan)
		}
		kv := m.KVGroup(qh)
		want := attention.Full(q, cache.Keys(1, kv), cache.Values(1, kv))
		for i := range want {
			if math.Abs(float64(res.Output[i]-want[i])) > 1e-4 {
				t.Fatalf("head %d output[%d] = %v, want %v", qh, i, res.Output[i], want[i])
			}
		}
		if res.Attended != 120 {
			t.Errorf("attended = %d, want 120", res.Attended)
		}
	}
}

// TestLongContextDIPRFindsNeedle: end-to-end sparse path. A needle planted
// mid-context must be retrieved and dominate the output of a sharp head.
func TestLongContextDIPRFindsNeedle(t *testing.T) {
	dev := devmem.New(24 << 20) // fits weights+window but not the coarse block cache
	mdl := testModel()
	db, err := New(Config{
		Model:         mdl,
		Device:        dev,
		Window:        attention.Window{Sinks: 4, Recent: 16},
		LongThreshold: 256,
		Graph:         graph.Config{Degree: 12, QueryKNN: 8, EfConstruction: 48},
	})
	if err != nil {
		// Tight device may not even fit weights; widen.
		t.Fatal(err)
	}
	defer db.Close()

	const n, needlePos, questionTopic, answer = 800, 400, 100, 7
	doc := model.NewFiller(7, n, 64, 32)
	doc.Plant(needlePos, questionTopic, answer, 1)
	if _, err := db.ImportDoc(doc); err != nil {
		t.Fatal(err)
	}
	sess, reused := db.CreateSession(doc)
	defer sess.Close()
	if reused != n {
		t.Fatalf("reused = %d", reused)
	}

	// Sharp head of layer 1 (layer 0 heads are diffuse by construction).
	qh := 0 // head 0 of layer >= 1 is pinned sharp
	q := mdl.QueryVector(doc, 1, qh, model.QuerySpec{FocusTopics: []int{questionTopic}, ContextLen: n})
	res := sess.Attention(1, qh, q)
	if res.Plan.Query != query.KindDIPR || res.Plan.Index != query.IndexFine {
		t.Fatalf("plan = %v, want dipr+fine", res.Plan)
	}
	if res.Retrieved == 0 {
		t.Fatal("nothing retrieved")
	}
	// The needle must be in the retrieved set.
	found := false
	for _, id := range res.RetrievedIDs {
		if id == needlePos {
			found = true
		}
	}
	if !found {
		t.Fatalf("needle %d not retrieved: %v", needlePos, res.RetrievedIDs)
	}
	// The sparse output must approximate full attention far better than a
	// window-only (StreamingLLM-style) baseline that drops the needle.
	cache := mdl.BuildKV(doc)
	kv := mdl.KVGroup(qh)
	want := attention.Full(q, cache.Keys(1, kv), cache.Values(1, kv))
	simSparse := vec.CosineSimilarity(res.Output, want)
	winOnly := attention.Sparse(q, cache.Keys(1, kv), cache.Values(1, kv), db.Window().Indices(n))
	simWindow := vec.CosineSimilarity(winOnly, want)
	if simSparse < 0.75 {
		t.Errorf("sparse output cos sim to full = %v, want >= 0.75", simSparse)
	}
	if simSparse <= simWindow {
		t.Errorf("sparse (%v) does not beat window-only (%v)", simSparse, simWindow)
	}
}

func TestLayerZeroUsesFlatPlan(t *testing.T) {
	dev := devmem.New(24 << 20)
	mdl := testModel()
	db, err := New(Config{
		Model: mdl, Device: dev,
		Window:        attention.Window{Sinks: 4, Recent: 16},
		LongThreshold: 256,
		Graph:         graph.Config{Degree: 12, QueryKNN: 8, EfConstruction: 48},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc := model.NewFiller(8, 400, 8, 32)
	if _, err := db.ImportDoc(doc); err != nil {
		t.Fatal(err)
	}
	sess, _ := db.CreateSession(doc)
	defer sess.Close()
	q := mdl.QueryVector(doc, 0, 0, model.QuerySpec{FocusTopics: []int{1}, ContextLen: 400})
	res := sess.Attention(0, 0, q)
	if res.Plan.Index != query.IndexFlat {
		t.Errorf("layer-0 plan = %v, want dipr+flat", res.Plan)
	}
}

func TestAmpleDeviceSelectsCoarse(t *testing.T) {
	db := testDB(t, nil) // unlimited device
	doc := model.NewFiller(9, 500, 8, 32)
	if _, err := db.ImportDoc(doc); err != nil {
		t.Fatal(err)
	}
	sess, _ := db.CreateSession(doc)
	defer sess.Close()
	mdl := db.Model()
	q := mdl.QueryVector(doc, 1, 0, model.QuerySpec{FocusTopics: []int{1}, ContextLen: 500})
	res := sess.Attention(1, 0, q)
	if res.Plan.Query != query.KindTopK || res.Plan.Index != query.IndexCoarse {
		t.Fatalf("plan = %v, want topk+coarse", res.Plan)
	}
	if res.Retrieved == 0 {
		t.Error("coarse retrieved nothing")
	}
	if db.Device().UsedBy(devmem.BlockCache) == 0 {
		t.Error("coarse path did not register device memory")
	}
}

func TestPartialReuseFiltersRetrieval(t *testing.T) {
	dev := devmem.New(24 << 20)
	mdl := testModel()
	db, err := New(Config{
		Model: mdl, Device: dev,
		Window:        attention.Window{Sinks: 4, Recent: 16},
		LongThreshold: 256,
		Graph:         graph.Config{Degree: 12, QueryKNN: 8, EfConstruction: 48},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	stored := model.NewFiller(10, 600, 8, 32)
	if _, err := db.ImportDoc(stored); err != nil {
		t.Fatal(err)
	}
	partial := &model.Document{Seed: stored.Seed, Tokens: append([]model.Token(nil), stored.Tokens[:400]...)}
	partial.Append(model.Token{Topic: 50, Payload: 3})
	sess, reused := db.CreateSession(partial)
	defer sess.Close()
	if reused != 400 {
		t.Fatalf("reused = %d", reused)
	}
	sess.PrefillRemaining()

	q := mdl.QueryVector(partial, 1, 0, model.QuerySpec{FocusTopics: []int{2}, ContextLen: 401})
	res := sess.Attention(1, 0, q)
	if !res.Plan.Filtered {
		t.Fatalf("plan = %v, want filtered", res.Plan)
	}
	// All attended tokens besides window/tail must be below the reuse
	// boundary; Attended counts prefix + tail.
	if res.Attended > 400+1 {
		t.Errorf("attended %d tokens, must not exceed reuse boundary + tail", res.Attended)
	}
}

func TestStoreAndReuseStored(t *testing.T) {
	db := testDB(t, nil)
	doc := model.NewFiller(11, 150, 8, 32)
	sess, _ := db.CreateSession(doc)
	sess.PrefillRemaining()
	sess.AppendToken(model.Token{Topic: 3, Payload: 4})

	ctx, err := db.Store(sess)
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if ctx.Len() != 151 {
		t.Fatalf("stored len = %d", ctx.Len())
	}
	// The stored KV must match the substrate's reference build.
	ref := db.Model().BuildKV(ctx.Doc())
	for l := 0; l < 2; l++ {
		for h := 0; h < 2; h++ {
			a, b := ctx.Cache().Keys(l, h), ref.Keys(l, h)
			for i := 0; i < a.Rows(); i++ {
				for j := range a.Row(i) {
					if a.Row(i)[j] != b.Row(i)[j] {
						t.Fatalf("stored KV differs at layer %d head %d row %d", l, h, i)
					}
				}
			}
		}
	}
	// A new session over the stored doc reuses everything.
	sess2, reused := db.CreateSession(ctx.Doc())
	defer sess2.Close()
	if reused != 151 {
		t.Errorf("reuse of stored = %d", reused)
	}
}

// TestIndexBuildCounter pins the counter behind core.index_build_ms: each
// Import builds the context's indexes once, and a copy-on-write Store
// shares its base's indexes and builds none.
func TestIndexBuildCounter(t *testing.T) {
	db := testDB(t, nil)
	baseDoc := model.NewFiller(13, 300, 8, 32)
	if _, err := db.ImportDoc(baseDoc); err != nil {
		t.Fatal(err)
	}
	if got := db.CtxParStats().IndexBuilds; got != 1 {
		t.Fatalf("after Import: %d index builds, want 1", got)
	}
	if _, err := db.ImportDoc(model.NewFiller(14, 200, 8, 32)); err != nil {
		t.Fatal(err)
	}
	if got := db.CtxParStats().IndexBuilds; got != 2 {
		t.Fatalf("after a second Import: %d index builds, want 2", got)
	}
	sess, reused := db.CreateSession(diverge(baseDoc, 250, 20, 100))
	defer sess.Close()
	if reused != 250 {
		t.Fatalf("reused = %d, want 250", reused)
	}
	sess.PrefillRemaining()
	ctx, err := db.Store(sess)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Base() == nil {
		t.Fatal("Store over a reused prefix did not take the copy-on-write path")
	}
	if got := db.CtxParStats().IndexBuilds; got != 2 {
		t.Fatalf("after a CoW Store: %d index builds, want 2", got)
	}
}

func TestStoreBeforePrefillFails(t *testing.T) {
	db := testDB(t, nil)
	doc := model.NewFiller(12, 50, 8, 32)
	sess, _ := db.CreateSession(doc)
	defer sess.Close()
	if _, err := db.Store(sess); err == nil {
		t.Fatal("store of unprefilled session accepted")
	}
}

func TestSessionCloseFreesDevice(t *testing.T) {
	dev := devmem.New(0)
	db := testDB(t, dev)
	doc := model.NewFiller(13, 100, 8, 32)
	sess, _ := db.CreateSession(doc)
	if dev.UsedBy(devmem.Window) == 0 {
		t.Fatal("window not registered")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if dev.UsedBy(devmem.Window) != 0 {
		t.Error("window not freed on close")
	}
	if err := sess.Close(); err == nil {
		t.Error("double close accepted")
	}
}

func TestStatsAccumulate(t *testing.T) {
	db := testDB(t, nil)
	doc := model.NewFiller(14, 100, 8, 32)
	sess, _ := db.CreateSession(doc)
	defer sess.Close()
	sess.PrefillRemaining()
	mdl := db.Model()
	q := mdl.QueryVector(doc, 0, 0, model.QuerySpec{FocusTopics: []int{1}, ContextLen: 100})
	sess.Attention(0, 0, q)
	sess.Attention(0, 1, q)
	st := sess.Stats()
	if st.Queries != 2 {
		t.Errorf("queries = %d", st.Queries)
	}
	if st.Plans["full+none"] != 2 {
		t.Errorf("plans = %v", st.Plans)
	}
}

func TestAttentionAll(t *testing.T) {
	db := testDB(t, nil)
	doc := model.NewFiller(15, 80, 8, 32)
	sess, _ := db.CreateSession(doc)
	defer sess.Close()
	sess.PrefillRemaining()
	mdl := db.Model()
	qs := make([][]float32, 4)
	for h := range qs {
		qs[h] = mdl.QueryVector(doc, 1, h, model.QuerySpec{FocusTopics: []int{1}, ContextLen: 80})
	}
	res := sess.AttentionAll(1, qs)
	if len(res) != 4 {
		t.Fatalf("results = %d", len(res))
	}
	for h, r := range res {
		if len(r.Output) != 128 {
			t.Errorf("head %d output dim = %d", h, len(r.Output))
		}
	}
}

func TestSessionDoesNotMutateCallerDocument(t *testing.T) {
	db := testDB(t, nil)
	doc := model.NewFiller(30, 60, 8, 32)
	wantLen := doc.Len()
	sess, _ := db.CreateSession(doc)
	defer sess.Close()
	sess.PrefillRemaining()
	sess.AppendToken(model.Token{Topic: 1, Payload: 1})
	if doc.Len() != wantLen {
		t.Fatalf("AppendToken mutated the caller's document: len %d -> %d", wantLen, doc.Len())
	}
	if sess.Doc().Len() != wantLen+1 {
		t.Fatalf("session doc len = %d, want %d", sess.Doc().Len(), wantLen+1)
	}
}

func TestAttentionOnEmptySession(t *testing.T) {
	db := testDB(t, nil)
	sess, reused := db.CreateSession(&model.Document{Seed: 123})
	defer sess.Close()
	if reused != 0 {
		t.Fatalf("reused = %d on empty doc", reused)
	}
	q := make([]float32, db.Model().Config().HeadDim)
	q[0] = 1
	res := sess.Attention(0, 0, q)
	// No tokens anywhere: output must be a zero vector, not NaN or panic.
	for i, v := range res.Output {
		if v != 0 {
			t.Fatalf("output[%d] = %v on empty context", i, v)
		}
	}
	if res.Attended != 0 {
		t.Errorf("attended = %d on empty context", res.Attended)
	}
}

func TestAttentionColdSessionNoStore(t *testing.T) {
	// A session with no stored context but a long prefilled tail must still
	// produce sane outputs (everything attends through the tail path).
	db := testDB(t, nil)
	doc := model.NewFiller(31, 400, 16, 32)
	sess, _ := db.CreateSession(doc)
	defer sess.Close()
	sess.PrefillRemaining()
	mdl := db.Model()
	q := mdl.QueryVector(doc, 1, 0, model.QuerySpec{FocusTopics: []int{3}, ContextLen: 400})
	res := sess.Attention(1, 0, q)
	if res.Attended != 400 {
		t.Errorf("attended = %d, want all 400 tail tokens", res.Attended)
	}
	cache := mdl.BuildKV(doc)
	kv := mdl.KVGroup(0)
	want := attention.Full(q, cache.Keys(1, kv), cache.Values(1, kv))
	for i := range want {
		if math.Abs(float64(res.Output[i]-want[i])) > 1e-4 {
			t.Fatalf("cold-session output differs from full attention at %d", i)
		}
	}
}
