package main

import (
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/attention"
	"repro/internal/core"
	"repro/internal/devmem"
	"repro/internal/index/coarse"
	"repro/internal/index/flat"
	"repro/internal/index/graph"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/vec"
	"repro/internal/workload"
)

// timeMedian runs fn reps times and returns the median duration in µs.
func timeMedian(reps int, fn func(i int)) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn(i)
		ds[i] = float64(time.Since(t0)) / 1e3
	}
	return median(ds)
}

var sink float32 // keeps probe results observable so calls are not elided

// probeInner measures the layers the serving path cannot be cut open at
// from outside: one public function per inner layer, called on a stored
// context's own planes with the workload's own queries. The context is
// imported into a separate DB (same deployment config), so probing never
// disturbs the served state — and the import itself is the write-path
// probe. Values land in vals under their per-layer metric names.
func (b *bench) probeInner(d *docCtx, vals map[string]float64) error {
	quant := b.spec.name == wlChurn
	mc := b.m.Config()
	doc := d.inst.Doc
	n := doc.Len()

	t0 := time.Now()
	kv := b.m.BuildKV(doc)
	vals["model.kvgen_us_per_tok"] = float64(time.Since(t0)) / 1e3 / float64(n)

	db, err := core.New(core.Config{Model: b.m, Device: b.newDevice(), Window: window, LongThreshold: b.spec.longThreshold, QuantKeys: quant})
	if err != nil {
		return err
	}
	defer db.Close()
	t0 = time.Now()
	ctx, err := db.Import(doc, kv)
	if err != nil {
		return err
	}
	vals["core.import_ms"] = float64(time.Since(t0)) / 1e6
	vals["core.index_build_ms"] = float64(db.CtxParStats().LastIndexBuildMillis)
	split := ctx.Cache().BytesSplit()
	vals["kvcache.bytes_per_token"] = float64(split.Keys+split.Values) / float64(n)
	vals["kvcache.quant_bytes_per_token"] = float64(split.QuantKeys) / float64(n)
	vals["index.graph.bytes_per_token"] = float64(ctx.IndexBytes()) / float64(n)

	// Queries of a retrieval layer (layer 1, head 0 is pinned sharp) and of
	// the diffuse layer 0, as the workload's steps issue them.
	const reps = 32
	steps := len(d.queries)
	qFine := func(i int) []float32 { return d.queries[i%steps][1][0] }
	qFlat := func(i int) []float32 { return d.queries[i%steps][0][0] }
	keys1, vals1 := ctx.Cache().Keys(1, 0), ctx.Cache().Values(1, 0)
	keys0 := ctx.Cache().Keys(0, 0)
	beta := query.Beta(0.5, mc.HeadDim)
	resultCap := n / 8
	if resultCap < 64 {
		resultCap = 64
	}

	// query: DIPRS over the stored graph, configured as a session does.
	g := ctx.Graph(db, 1, 0)
	var st query.SearchState
	cfg := query.DIPRSConfig{Beta: beta, MaxResults: resultCap, MaxExplore: 4 * resultCap}
	var explored, critical int
	vals["query.diprs_us"] = timeMedian(reps, func(i int) {
		r := query.DIPRSWith(&st, g, qFine(i), cfg)
		explored += r.Explored
		critical += len(r.Critical)
	})
	vals["query.explored_per_probe"] = float64(explored) / reps
	vals["query.yield"] = ratio(float64(critical), float64(explored))
	const optReps = 1 << 16
	t0 = time.Now()
	for i := 0; i < optReps; i++ {
		p := query.Optimize(query.Request{ContextLen: n + i&1, LongThreshold: b.spec.longThreshold, Layer: i & 3, DeviceFree: 4096, CoarseNeed: 1 << 25})
		sink += float32(p.Index)
	}
	vals["query.optimize_ns"] = float64(time.Since(t0)) / optReps

	// index: the layer-0 flat band scan (on the SQ8 plane when the workload
	// quantizes), one graph build, and the coarse selection no workload plans.
	fx := flat.MakeQuant(keys0, ctx.Cache().QuantKeys(0, 0), 2)
	var fsc flat.Scratch
	vals["index.flat.scan_us"] = timeMedian(reps, func(i int) {
		cands, _ := fx.DIPRFilteredScratch(&fsc, qFlat(i), beta, n)
		sink += float32(len(cands))
	})
	t0 = time.Now()
	built := graph.Build(keys1, core.TrainingQueries(b.m, doc, 1, b.m.QueryHeadsOf(0), 0.4), graph.Config{})
	vals["index.graph.build_ms"] = float64(time.Since(t0)) / 1e6
	sink += float32(built.Len())
	cx := coarse.New(keys1, 128, coarse.Mean)
	vals["index.coarse.select_us"] = timeMedian(reps, func(i int) {
		sink += float32(len(cx.SelectTokens(qFine(i), 4096)))
	})

	// attention: the partial over a typical attended set (what DIPRS just
	// returned, plus the window), its SQ8 twin, a 128-row tail, the merge.
	r := query.DIPRSWith(&st, g, qFine(0), cfg)
	idx := window.Indices(n)
	seen := map[int]bool{}
	for _, i := range idx {
		seen[i] = true
	}
	for _, c := range r.Critical {
		if !seen[int(c.ID)] {
			idx = append(idx, int(c.ID))
		}
	}
	sort.Ints(idx)
	var sc, sc2 attention.Scratch
	vals["attention.over_us"] = timeMedian(reps, func(i int) {
		sink += attention.OverScratch(&sc, qFine(i), keys1, vals1, idx).Output[0]
	})
	qk := ctx.Cache().QuantKeys(1, 0)
	if qk == nil {
		qk = vec.QuantizeMatrix(keys1)
	}
	vals["attention.over_q8_us"] = timeMedian(reps, func(i int) {
		sink += attention.OverQ8Scratch(&sc, qFine(i), qk, vals1, idx).Output[0]
	})
	tail := n
	if tail > 128 {
		tail = 128
	}
	segs := []attention.KVSpan{{K: keys1, V: vals1, Lo: n - tail, Hi: n}}
	vals["attention.segments_us"] = timeMedian(reps, func(i int) {
		sink += attention.OverSegmentsScratch(&sc2, qFine(i), segs).Output[0]
	})
	parts := []attention.Partial{
		attention.OverScratch(&sc, qFine(0), keys1, vals1, idx),
		attention.OverSegmentsScratch(&sc2, qFine(0), segs),
	}
	dst := make([]float32, mc.HeadDim)
	vals["attention.merge_us"] = timeMedian(reps*8, func(int) { sink += attention.MergeInto(dst, parts)[0] })

	// vec: the three kernels a step spends its time in, on a 4096×128
	// plane. GB/s is computed bytes (rows × dim × element size) over time,
	// not measured memory traffic.
	const rows = 4096
	plane := vec.NewMatrix(rows, mc.HeadDim)
	for i := 0; i < rows; i++ {
		plane.SetRow(i, keys1.Row(i%n))
	}
	qplane := vec.QuantizeMatrix(plane)
	out := make([]float32, rows)
	acc := make([]float32, mc.HeadDim)
	var qq vec.QueryQ8
	qq.Quantize(qFine(0))
	gbs := func(bytes int, us float64) float64 { return float64(bytes) / us / 1e3 }
	vals["vec.dot_gbs"] = gbs(rows*mc.HeadDim*4, timeMedian(reps, func(i int) { vec.DotBatch(qFine(i), plane, out) }))
	vals["vec.dotq8_gbs"] = gbs(rows*mc.HeadDim, timeMedian(reps, func(int) { vec.DotBatchQ8(&qq, qplane, out) }))
	vals["vec.wsum_gbs"] = gbs(rows*mc.HeadDim*4, timeMedian(reps, func(int) { vec.WeightedSumRange(out, plane, 0, rows, acc) }))
	sink += out[0] + acc[0]

	// core read path facts the wire does not carry: a session straight on
	// the DB reports what its queries explored and reranked, and
	// workload.Evaluate scores the attended sets against exact attention.
	sess, _ := db.CreateSession(doc)
	full := window.Indices(n)
	outcome := workload.Evaluate(b.m, d.inst, func(layer, qHead int, q []float32) ([]float32, []int) {
		res := sess.Attention(layer, qHead, q)
		if res.Plan.Query == query.KindFull {
			return res.Output, nil
		}
		return res.Output, append(append([]int(nil), full...), window.Outside(res.RetrievedIDs, n)...)
	})
	vals["core.recovery_ratio"] = outcome.Recovery
	res := make([][]core.AttentionResult, mc.Layers)
	for l := range res {
		res[l] = make([]core.AttentionResult, mc.QHeads)
	}
	before := sess.Stats()
	for i := 0; i < 8 && i < steps; i++ {
		sess.AttentionAllLayersInto(d.queries[i], res)
	}
	after := sess.Stats()
	dq := float64(after.Queries - before.Queries)
	vals["core.explored_per_query"] = ratio(float64(after.Explored-before.Explored), dq)
	vals["core.reranked_per_query"] = ratio(float64(after.Reranked-before.Reranked), dq)
	vals["core.flat_fallbacks"] = float64(after.FlatFallbacks)
	vals["devmem.window_mb"] = float64(db.Device().UsedBy(devmem.Window)) / 1e6
	vals["devmem.blockcache_mb"] = float64(db.Device().UsedBy(devmem.BlockCache)) / 1e6
	sess.Close()

	// core write path: a copy-on-write Store of a short unique suffix, and —
	// where the workload ingests documents — a cold Store (materialize +
	// index build) of a same-length document.
	suffix := extend(doc, n, uniqueTokens(&rng{s: 1}, 0, 64, mc.Vocab))
	cow, reused := db.CreateSession(suffix)
	t0 = time.Now()
	cow.PrefillRemaining()
	vals["core.prefill_us_per_tok"] = float64(time.Since(t0)) / 1e3 / float64(suffix.Len()-reused)
	t0 = time.Now()
	_, err = db.Store(cow)
	vals["core.store_cow_us"] = float64(time.Since(t0)) / 1e3
	cow.Close()
	if err != nil {
		return err
	}
	t0 = time.Now()
	hit, _ := db.CreateSession(doc)
	vals["core.create_hit_us"] = float64(time.Since(t0)) / 1e3
	hit.Close()
	if b.spec.name == wlChurn || b.spec.name == wlCluster {
		fresh := &model.Document{Seed: doc.Seed + 1, Tokens: doc.Tokens}
		cold, _ := db.CreateSession(fresh)
		cold.PrefillRemaining()
		t0 = time.Now()
		_, err = db.Store(cold)
		vals["core.store_cold_ms"] = float64(time.Since(t0)) / 1e6
		cold.Close()
		if err != nil {
			return err
		}
	}

	// storage: a context saved to and loaded from the benchmark's scratch
	// directory. Reads are served from the OS page cache: these are sandbox
	// rates, not device rates.
	dir := filepath.Join(b.scratch, "probe-ctx")
	t0 = time.Now()
	if err := db.SaveContext(ctx, dir); err != nil {
		return err
	}
	saveS := time.Since(t0).Seconds()
	disk := dirBytes(dir)
	vals["storage.save_mb_s"] = float64(disk) / 1e6 / saveS
	vals["storage.disk_bytes_per_kv_byte"] = ratio(float64(disk), float64(ctx.Cache().Bytes()))
	db2, err := core.New(core.Config{Model: b.m, Window: window, QuantKeys: quant})
	if err != nil {
		return err
	}
	defer db2.Close()
	t0 = time.Now()
	if _, err := db2.LoadContext(dir); err != nil {
		return err
	}
	vals["storage.load_mb_s"] = float64(disk) / 1e6 / time.Since(t0).Seconds()
	return os.RemoveAll(dir)
}

func dirBytes(dir string) int64 {
	var n int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !info.IsDir() {
			n += info.Size()
		}
	}
	return n
}
