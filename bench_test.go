// Package repro's root benchmark suite: one testing.B benchmark per table
// and figure of the paper (each delegating to the internal/bench runner at
// a reduced scale), plus micro-benchmarks for the hot paths underneath
// them. Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Full-scale experiment output comes from cmd/alayabench; end-to-end
// serving performance is measured by benchmark/ (see benchmark/README.md).
package repro

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/attention"
	"repro/internal/baselines"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/devmem"
	"repro/internal/index"
	"repro/internal/index/coarse"
	"repro/internal/index/flat"
	"repro/internal/index/graph"
	"repro/internal/index/knn"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/query"
	"repro/internal/storage/vfs"
	"repro/internal/vec"
	"repro/internal/workload"
)

// benchScale keeps per-iteration experiment runs tractable under -bench.
func benchScale() bench.Scale {
	cfg := model.Default()
	cfg.Layers = 2
	cfg.QHeads = 4
	cfg.KVHeads = 2
	cfg.Vocab = 32
	return bench.Scale{ContextLen: 1024, Trials: 1, Workers: 2, Seed: 5, Model: cfg}
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := bench.Run(name, benchScale(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper artefact (§9 of the paper) ---

func BenchmarkFig5HeadVariance(b *testing.B)   { runExperiment(b, "fig5") }
func BenchmarkTable3TaskK(b *testing.B)        { runExperiment(b, "table3") }
func BenchmarkFig6AccuracyTokens(b *testing.B) { runExperiment(b, "fig6") }
func BenchmarkTable5Quality(b *testing.B)      { runExperiment(b, "table5") }
func BenchmarkFig9MemoryQuality(b *testing.B)  { runExperiment(b, "fig9") }
func BenchmarkFig10TTFT(b *testing.B)          { runExperiment(b, "fig10") }
func BenchmarkFig11IndexBuild(b *testing.B)    { runExperiment(b, "fig11") }
func BenchmarkFig12FilteredDIPRS(b *testing.B) { runExperiment(b, "fig12") }
func BenchmarkTable4IndexTypes(b *testing.B)   { runExperiment(b, "table4") }
func BenchmarkWindowCacheHitRate(b *testing.B) { runExperiment(b, "window") }

// benchDecodeSession builds the steady-state decode setting (full reuse,
// DIPR plans, serial pool) and returns per-layer query sets.
func benchDecodeSession(b *testing.B) (*core.DB, *core.Session, [][][]float32) {
	b.Helper()
	cfg := model.Default()
	cfg.Layers = 2
	cfg.QHeads = 4
	cfg.KVHeads = 2
	cfg.Vocab = 32
	m := model.New(cfg)
	win := attention.Window{Sinks: 4, Recent: 16}
	winBytes := int64(win.Sinks+win.Recent) * int64(cfg.Layers) * int64(cfg.KVHeads) * int64(cfg.HeadDim) * 4 * 2
	db, err := core.New(core.Config{
		Model:         m,
		Device:        devmem.New(m.WeightsBytes() + 2*winBytes + 4096),
		Window:        win,
		LongThreshold: 256,
		Graph:         graph.Config{Degree: 16, QueryKNN: 12, EfConstruction: 64, Workers: 2},
		Pool:          pool.Serial(),
	})
	if err != nil {
		b.Fatal(err)
	}
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 17, 2048, 64, 32)
	if _, err := db.ImportDoc(inst.Doc); err != nil {
		b.Fatal(err)
	}
	sess, _ := db.CreateSession(inst.Doc)
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

// BenchmarkDecodeTokenScratch is the pooled-arena decode step; steady state
// is 0 allocs/op.
func BenchmarkDecodeTokenScratch(b *testing.B) {
	db, sess, qs := benchDecodeSession(b)
	defer db.Close()
	defer sess.Close()
	outs := make([][]core.AttentionResult, len(qs))
	for l := range outs {
		outs[l] = make([]core.AttentionResult, len(qs[l]))
	}
	for l := range qs {
		sess.AttentionAllInto(l, qs[l], outs[l])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := range qs {
			sess.AttentionAllInto(l, qs[l], outs[l])
		}
	}
}

func BenchmarkDIPRSSearchState(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	g, _ := buildBenchGraph(rng, 8192)
	q := randomVec(rng, 128)
	st := query.NewSearchState()
	query.DIPRSWith(st, g, q, query.DIPRSConfig{Beta: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query.DIPRSWith(st, g, q, query.DIPRSConfig{Beta: 2})
	}
}

func BenchmarkAttentionOverScratch64of4096(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	K := randomMatrix(rng, 4096, 128)
	V := randomMatrix(rng, 4096, 128)
	q := randomVec(rng, 128)
	idx := make([]int, 64)
	for i := range idx {
		idx[i] = rng.Intn(4096)
	}
	var sc attention.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attention.OverScratch(&sc, q, K, V, idx)
	}
}

// BenchmarkDotBatchRange is one flat scan of a 4096-token head: the
// strided shape of the 4-row dot kernel.
func BenchmarkDotBatchRange(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	K := randomMatrix(rng, 4096, 128)
	q := randomVec(rng, 128)
	out := make([]float32, 4096)
	b.SetBytes(4096 * 128 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec.DotBatchRange(q, K, 0, 4096, out)
	}
}

// BenchmarkDotBatchRangeGroup4 is one flat scan of a 4096-token KV group
// for its four query heads in one multi-query pass (the 4-query × 2-row
// kernel): the same work as four BenchmarkDotBatchRange iterations, with
// each key row read once instead of four times.
func BenchmarkDotBatchRangeGroup4(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	K := randomMatrix(rng, 4096, 128)
	qs := make([][]float32, 4)
	outs := make([][]float32, 4)
	for j := range qs {
		qs[j] = randomVec(rng, 128)
		outs[j] = make([]float32, 4096)
	}
	b.SetBytes(4096 * 128 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec.DotBatchRangeMulti(qs, K, 0, 4096, outs)
	}
}

// BenchmarkWeightedSumRange256 is the value mix over a 256-token prefix
// (a short-http context's full plan): the strided shape of the 4-row axpy
// kernel.
func BenchmarkWeightedSumRange256(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	V := randomMatrix(rng, 256, 128)
	w := randomVec(rng, 256)
	out := make([]float32, 128)
	b.SetBytes(256 * 128 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec.WeightedSumRange(w, V, 0, 256, out)
	}
}

// BenchmarkWeightedSumGather122of4096 is the value mix over the 122 rows a
// long-local step attends out of a 4096-token head: the gathered shape of
// the 4-row axpy kernel.
func BenchmarkWeightedSumGather122of4096(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	V := randomMatrix(rng, 4096, 128)
	w := randomVec(rng, 122)
	idx := rng.Perm(4096)[:122]
	sort.Ints(idx)
	out := make([]float32, 128)
	b.SetBytes(122 * 128 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec.WeightedSumGather(w, V, idx, out)
	}
}

// --- Micro-benchmarks of the hot paths ---

func randomVec(rng *rand.Rand, d int) []float32 {
	v := make([]float32, d)
	for i := range v {
		v[i] = rng.Float32()*2 - 1
	}
	return v
}

func randomMatrix(rng *rand.Rand, n, d int) *vec.Matrix {
	m := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			m.Row(i)[j] = rng.Float32()*2 - 1
		}
	}
	return m
}

func BenchmarkVecDot128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := randomVec(rng, 128), randomVec(rng, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec.Dot(x, y)
	}
}

func BenchmarkSoftmax4096(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	logits := randomVec(rng, 4096)
	out := make([]float32, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec.Softmax(logits, out)
	}
}

func BenchmarkFullAttention4096(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	K := randomMatrix(rng, 4096, 128)
	V := randomMatrix(rng, 4096, 128)
	q := randomVec(rng, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attention.Full(q, K, V)
	}
}

func BenchmarkOnlineAttention4096(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	K := randomMatrix(rng, 4096, 128)
	V := randomMatrix(rng, 4096, 128)
	q := randomVec(rng, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attention.FullOnline(q, K, V)
	}
}

func BenchmarkSparseAttention64of4096(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	K := randomMatrix(rng, 4096, 128)
	V := randomMatrix(rng, 4096, 128)
	q := randomVec(rng, 128)
	idx := make([]int, 64)
	for i := range idx {
		idx[i] = rng.Intn(4096)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attention.Sparse(q, K, V, idx)
	}
}

func BenchmarkFlatTopK100(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	keys := randomMatrix(rng, 8192, 128)
	fx := flat.New(keys, 1)
	q := randomVec(rng, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.TopK(q, 100)
	}
}

func BenchmarkFlatDIPR(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	keys := randomMatrix(rng, 8192, 128)
	fx := flat.New(keys, 2)
	q := randomVec(rng, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.DIPR(q, 2)
	}
}

func BenchmarkCoarseSelect(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	keys := randomMatrix(rng, 8192, 128)
	cx := coarse.New(keys, 64, coarse.Bound)
	q := randomVec(rng, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cx.SelectTokens(q, 512)
	}
}

func buildBenchGraph(rng *rand.Rand, n int) (*graph.Graph, *vec.Matrix) {
	keys := randomMatrix(rng, n, 128)
	queries := randomMatrix(rng, n/4, 128)
	g := graph.Build(keys, queries, graph.Config{Degree: 16, QueryKNN: 12, EfConstruction: 64, Workers: 2})
	return g, keys
}

func BenchmarkGraphTopK100(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	g, _ := buildBenchGraph(rng, 8192)
	q := randomVec(rng, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.TopK(q, 100)
	}
}

func BenchmarkDIPRSSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	g, _ := buildBenchGraph(rng, 8192)
	q := randomVec(rng, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query.DIPRS(g, q, query.DIPRSConfig{Beta: 2})
	}
}

func BenchmarkGraphBuildBipartite2048(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	keys := randomMatrix(rng, 2048, 128)
	queries := randomMatrix(rng, 512, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.Build(keys, queries, graph.Config{Degree: 16, QueryKNN: 12, EfConstruction: 64, Workers: 2})
	}
}

// BenchmarkExactKNN is the bipartite stage's exact kNN for one (layer,
// KV head) of a 4096-token import: ~1900 training queries against 4096
// keys, κ = 16, on one worker.
func BenchmarkExactKNN(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	keys := randomMatrix(rng, 4096, 128)
	queries := randomMatrix(rng, 1900, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		knn.Exact(queries, keys, 16, 1)
	}
}

// BenchmarkTrainingQueries4096 is the training-query synthesis for one
// (layer, KV head) of a 4096-token import: every query head of the group,
// each at the document's full length.
func BenchmarkTrainingQueries4096(b *testing.B) {
	m := model.New(model.Default())
	doc := model.NewFiller(14, 4096, 64, m.Config().Vocab)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.TrainingQueries(m, doc, 1, m.QueryHeadsOf(0), 0.4)
	}
}

func BenchmarkSessionAttentionDIPR(b *testing.B) {
	cfg := model.Default()
	cfg.Layers = 2
	cfg.QHeads = 4
	cfg.KVHeads = 2
	cfg.Vocab = 32
	m := model.New(cfg)
	db, err := core.New(core.Config{
		Model:         m,
		LongThreshold: 512,
		Graph:         graph.Config{Degree: 16, QueryKNN: 12, EfConstruction: 64, Workers: 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 3, 4096, 64, 32)
	if _, err := db.ImportDoc(inst.Doc); err != nil {
		b.Fatal(err)
	}
	sess, _ := db.CreateSession(inst.Doc)
	defer sess.Close()
	q := m.QueryVector(inst.Doc, 1, 0, model.QuerySpec{FocusTopics: inst.Question, ContextLen: 4096})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Attention(1, 0, q)
	}
}

func BenchmarkLMCacheStoreLoad(b *testing.B) {
	cfg := model.Default()
	cfg.Layers = 2
	cfg.QHeads = 4
	cfg.KVHeads = 2
	cfg.Vocab = 32
	m := model.New(cfg)
	doc := model.NewFiller(21, 1024, 64, 32)
	lm := &baselines.LMCache{Model: m}
	lm.Store(doc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lm.TTFT(doc, 1)
	}
}

// BenchmarkSaveContext2048Q8 is one victim spill at the end-to-end
// benchmark's shape: a 2048-token SQ8 context of 4 layers × 2 KV heads × 128
// (packed key codes, fp32 values, shared graphs) saved to a directory, the
// write the evicting caller waits for. Bytes/s is the directory size.
func BenchmarkSaveContext2048Q8(b *testing.B) {
	cfg := model.Default()
	cfg.Layers, cfg.QHeads, cfg.KVHeads, cfg.HeadDim = 4, 8, 2, 128
	cfg.Vocab = 32
	db, err := core.New(core.Config{
		Model:     model.New(cfg),
		Graph:     graph.Config{Degree: 16, QueryKNN: 12, EfConstruction: 64, Workers: 2},
		QuantKeys: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	p, _ := workload.ProfileByName("Retr.P")
	ctx, err := db.ImportDoc(workload.Generate(p, 19, 2048, 64, 32).Doc)
	if err != nil {
		b.Fatal(err)
	}
	dir := filepath.Join(b.TempDir(), "ctx")
	if err := db.SaveContext(ctx, dir); err != nil {
		b.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var size int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			b.Fatal(err)
		}
		size += info.Size()
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.SaveContext(ctx, dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVFSAppendMatrix appends one 2048 × 128 fp32 head into a fresh
// 4 KB-block vector file.
func BenchmarkVFSAppendMatrix(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	m := randomMatrix(rng, 2048, 128)
	path := filepath.Join(b.TempDir(), "head.alaya")
	b.SetBytes(m.Bytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs, err := vfs.Create(path, vfs.DefaultBlock, 128)
		if err != nil {
			b.Fatal(err)
		}
		if err := fs.AppendMatrix(m); err != nil {
			b.Fatal(err)
		}
		if err := fs.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinHeapTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	scores := make([]float32, 8192)
	for i := range scores {
		scores[i] = rng.Float32()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := make(index.MinHeap, 0, 100)
		for j, s := range scores {
			h.PushBounded(index.Candidate{ID: int32(j), Score: s}, 100)
		}
	}
}
