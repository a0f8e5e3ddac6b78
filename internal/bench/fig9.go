package bench

import (
	"fmt"
	"io"

	"repro/internal/attention"
	"repro/internal/baselines"
	"repro/internal/devmem"
	"repro/internal/index/coarse"
	"repro/internal/index/graph"
	"repro/internal/metrics"
	"repro/internal/workload"

	"repro/internal/model"
)

func init() {
	register("fig9", "quality vs device memory under the SLO (Figure 9)", runFig9)
}

// runFig9 reproduces Figure 9: for the En.MC-like and En.QA-like tasks,
// sweep the device-resident token budget of the coarse methods (InfLLM,
// StreamingLLM) and compare with the fixed window of the fine-grained
// methods (Top-k, DIPRS). The fine-grained methods sit in the top-left:
// best quality at the smallest footprint.
func runFig9(s Scale, w io.Writer) error {
	m := model.New(s.Model)
	n := s.ContextLen
	weights := m.WeightsBytes()

	fractions := []int{16, 8, 4, 2, 1} // cached tokens = n/f (f=1: whole context on device)
	for _, taskName := range []string{"En.MC", "En.QA"} {
		p, err := workload.ProfileByName(taskName)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Figure 9 (%s): quality vs device memory (context %d, %d trials; weights %.2f GB)\n\n",
			taskName, n, s.Trials, devmem.GB(weights))

		insts := make([]workload.Instance, s.Trials)
		assets := make([]*baselines.Assets, s.Trials)
		for i := range insts {
			insts[i] = workload.Generate(p, s.Seed+uint64(7*i), n, 64, s.Model.Vocab)
			assets[i] = baselines.NewAssets(m, insts[i].Doc)
			assets[i].BuildGraphs(graph.Config{Degree: 16, QueryKNN: 12, EfConstruction: 64, Workers: s.Workers}, 0.3)
			assets[i].BuildCoarse(16, coarse.Bound)
		}

		t := &table{header: []string{"method", "device GB (KV side)", "quality"}}
		evalOne := func(build func(a *baselines.Assets) baselines.Method) (float64, int64) {
			var q metrics.Quality
			var bytes int64
			for i := range insts {
				meth := build(assets[i])
				out := workload.Evaluate(m, insts[i], func(layer, qHead int, qv []float32) ([]float32, []int) {
					return meth.Attend(layer, qHead, qv)
				})
				q.Record(out.Correct)
				bytes = meth.DeviceBytes()
			}
			return q.Accuracy(), bytes
		}

		for _, f := range fractions {
			budget := n / f
			acc, bytes := evalOne(func(a *baselines.Assets) baselines.Method {
				return &baselines.InfLLM{A: a,
					Window: attention.Window{Sinks: 16, Recent: budget / 4},
					Budget: budget}
			})
			t.add(fmt.Sprintf("InfLLM n/%d", f), f3(devmem.GB(weights+bytes)), f1(acc))
		}
		for _, f := range fractions {
			budget := n / f
			acc, bytes := evalOne(func(a *baselines.Assets) baselines.Method {
				return &baselines.StreamingLLM{A: a,
					Window: attention.Window{Sinks: 16, Recent: budget}}
			})
			t.add(fmt.Sprintf("StreamingLLM n/%d", f), f3(devmem.GB(weights+bytes)), f1(acc))
		}
		win := attention.Window{Sinks: scaleTo(128, n), Recent: scaleTo(512, n)}
		acc, bytes := evalOne(func(a *baselines.Assets) baselines.Method {
			return &baselines.TopK{A: a, Window: win, K: scaleTo(100, n)}
		})
		t.add("Top-100(scaled)", f3(devmem.GB(weights+bytes)), f1(acc))
		acc, bytes = evalOne(func(a *baselines.Assets) baselines.Method {
			return &baselines.DIPRS{A: a, Window: win, Beta: betaFor(s.Model.HeadDim)}
		})
		t.add("DIPRS", f3(devmem.GB(weights+bytes)), f1(acc))
		t.write(w)
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "paper: DIPRS achieves the best quality at the lowest memory; coarse methods need much more memory to approach it")
	return nil
}
