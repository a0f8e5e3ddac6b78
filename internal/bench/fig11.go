package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/index/graph"
	"repro/internal/model"
	"repro/internal/workload"
)

func init() {
	register("fig11", "index construction time & memory: CPU vs parallel vs +GQA-sharing (Figure 11)", runFig11)
}

// runFig11 reproduces Figure 11: the cost of building the RoarGraph
// indexes for one layer of a stored context under three configurations.
//
//	CPU:       one index per query head, serial kNN (the
//	           RetrievalAttention baseline).
//	GPU:       one index per query head, kNN tiled across all cores (the
//	           CPU-only stand-in for the paper's cuVS GPU offload).
//	GPU+share: parallel kNN plus one index per kv-head group, trained on
//	           queries sampled across the group (§7.2).
//
// The absolute times are CPU-bound; the ratios — parallelism × fewer
// indexes — reproduce the figure's shape.
func runFig11(s Scale, w io.Writer) error {
	m := model.New(s.Model)
	layer := 1
	gcfg := graph.Config{Degree: 16, QueryKNN: 12, EfConstruction: 64}

	fmt.Fprintf(w, "Figure 11: index construction for one layer (%d query heads, %d kv heads)\n\n",
		s.Model.QHeads, s.Model.KVHeads)
	t := &table{header: []string{"context", "config", "indexes", "build time", "index MB", "speedup"}}

	for _, n := range contextLadder(s.ContextLen) {
		p, _ := workload.ProfileByName("En.QA")
		inst := workload.Generate(p, s.Seed, n, 64, s.Model.Vocab)
		cache := m.BuildKV(inst.Doc)

		build := func(perHead bool, workers int) (time.Duration, int64, int) {
			start := time.Now()
			var bytes int64
			count := 0
			if perHead {
				for qh := 0; qh < s.Model.QHeads; qh++ {
					kv := m.KVGroup(qh)
					queries := core.TrainingQueries(m, inst.Doc, layer, []int{qh}, 0.3)
					cfg := gcfg
					cfg.Workers = workers
					g := graph.Build(cache.Keys(layer, kv), queries, cfg)
					bytes += g.Bytes()
					count++
				}
			} else {
				for kv := 0; kv < s.Model.KVHeads; kv++ {
					queries := core.TrainingQueries(m, inst.Doc, layer, m.QueryHeadsOf(kv), 0.3)
					cfg := gcfg
					cfg.Workers = workers
					g := graph.Build(cache.Keys(layer, kv), queries, cfg)
					bytes += g.Bytes()
					count++
				}
			}
			return time.Since(start), bytes, count
		}

		cpuTime, cpuBytes, cpuCount := build(true, 1)
		gpuTime, gpuBytes, gpuCount := build(true, runtime.NumCPU())
		shareTime, shareBytes, shareCount := build(false, runtime.NumCPU())

		t.add(fmt.Sprintf("%d", n), "CPU", fmt.Sprintf("%d", cpuCount),
			fmtDur(cpuTime), f2(float64(cpuBytes)/1e6), "1.0x")
		t.add(fmt.Sprintf("%d", n), "GPU(parallel)", fmt.Sprintf("%d", gpuCount),
			fmtDur(gpuTime), f2(float64(gpuBytes)/1e6),
			fmt.Sprintf("%.1fx", float64(cpuTime)/float64(gpuTime)))
		t.add(fmt.Sprintf("%d", n), "GPU+share", fmt.Sprintf("%d", shareCount),
			fmtDur(shareTime), f2(float64(shareBytes)/1e6),
			fmt.Sprintf("%.1fx", float64(cpuTime)/float64(shareTime)))
	}
	t.write(w)
	fmt.Fprintln(w, "\npaper: GPU kNN gains 3-15x; adding GQA index sharing reaches 12-62x and ~4x smaller indexes")
	return nil
}
