// Comparison: run the paper's compared methods side by side on one task
// (a pocket-sized Table 5 row) — full attention, StreamingLLM, InfLLM,
// fixed top-k, and AlayaDB's DIPRS — reporting quality, device memory and
// per-step latency. The DIPRS row is the engine itself: the instance is
// imported into a core.DB and attended through a core.Session, whose
// graph indexes the top-k row retrieves through too.
//
//	go run ./examples/comparison
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/attention"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/devmem"
	"repro/internal/index/coarse"
	"repro/internal/index/graph"
	"repro/internal/model"
	"repro/internal/workload"
)

func main() {
	cfg := model.Default()
	cfg.Layers = 4
	m := model.New(cfg)

	const n = 4096
	task, _ := workload.ProfileByName("En.MC")
	inst := workload.Generate(task, 11, n, 64, cfg.Vocab)
	fmt.Printf("task %s: %d tokens, %d critical + %d decoy positions\n\n",
		inst.Task, n, len(inst.Critical), len(inst.Decoys))

	a := baselines.NewAssets(m, inst.Doc)
	win := attention.Window{Sinks: 16, Recent: 32}
	fmt.Print("storing the context (shared graph indexes)... ")
	start := time.Now()
	err := a.Store(core.Config{
		Window: win,
		Beta:   8.8,
		Graph:  graph.Config{Degree: 16, QueryKNN: 12, EfConstruction: 64},
	})
	if err != nil {
		log.Fatal(err)
	}
	a.BuildCoarse(16, coarse.Mean)
	fmt.Printf("done in %v\n\n", time.Since(start).Round(time.Millisecond))

	methods := []baselines.Method{
		&baselines.Full{A: a},
		&baselines.StreamingLLM{A: a, Window: attention.Window{Sinks: 16, Recent: 256}},
		&baselines.InfLLM{A: a, Window: win, Budget: 256},
		&baselines.TopK{A: a, Window: win, K: 50},
		&baselines.DIPRS{A: a},
	}

	fmt.Printf("%-16s %-8s %-14s %s\n", "method", "correct", "device KV", "decode step")
	fmt.Println("------------------------------------------------------------")
	for _, meth := range methods {
		out := workload.Evaluate(m, inst, func(layer, qHead int, q []float32) ([]float32, []int) {
			return meth.Attend(layer, qHead, q)
		})
		start := time.Now()
		for l := 0; l < cfg.Layers; l++ {
			for qh := 0; qh < cfg.QHeads; qh++ {
				q := m.QueryVector(inst.Doc, l, qh, model.QuerySpec{
					FocusTopics: inst.Question, ContextLen: n})
				meth.Attend(l, qh, q)
			}
		}
		step := time.Since(start)
		fmt.Printf("%-16s %-8v %-14s %v\n",
			meth.Name(), out.Correct,
			fmt.Sprintf("%.4f GB", devmem.GB(meth.DeviceBytes())),
			step.Round(time.Microsecond))
	}
	fmt.Println("\nDIPRS should match full attention's answer at a window-sized device footprint.")
}
