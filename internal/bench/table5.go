package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/attention"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/index/coarse"
	"repro/internal/index/graph"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/workload"
)

func init() {
	register("table5", "generation quality of sparse-attention methods on the 8-task suite (Table 5)", runTable5)
}

// ScaledSLO maps the paper's human-reading-speed TPOT SLO (0.24 s at 131K
// tokens on an L20 GPU) to our context scale: the budget's variable part
// shrinks proportionally with context length (decode cost is linear in n),
// on top of a 10 ms constant floor covering the per-step overheads that do
// not scale down (query synthesis, goroutine dispatch — every method pays
// them equally; the paper's GPU steps have analogous launch overheads).
func ScaledSLO(contextLen int) time.Duration {
	const floor = 10 * time.Millisecond
	return floor + time.Duration(float64(metrics.HumanReadingSLO)*float64(contextLen)/131072)
}

// fineWindow is the device window of the fine-grained methods (top-k and
// DIPRS): the paper's 128+512 at 131K, scaled to context length n.
func fineWindow(n int) attention.Window {
	return attention.Window{Sinks: scaleTo(128, n), Recent: scaleTo(512, n)}
}

// storeAssets imports a's instance into the core.DB that DIPRS runs on and
// TopK retrieves through, with the fine-grained methods' window and β.
func storeAssets(a *baselines.Assets, s Scale) error {
	return a.Store(core.Config{
		Window: fineWindow(s.ContextLen),
		Beta:   betaFor(s.Model.HeadDim),
		Graph:  graph.Config{Degree: 16, QueryKNN: 12, EfConstruction: 64},
	})
}

// table5Methods builds the compared configurations over shared assets,
// mirroring Table 5's rows. Window and retrieval sizes scale with context
// length, keeping the paper's proportions ([128+512]+k at 131K).
func table5Methods(a *baselines.Assets, n int) []baselines.Method {
	win := fineWindow(n)
	infWin := attention.Window{Sinks: scaleTo(128, n), Recent: scaleTo(4096, n)}
	return []baselines.Method{
		&baselines.Full{A: a},
		&baselines.InfLLM{A: a, Window: infWin, Budget: scaleTo(4096, n)},
		&baselines.StreamingLLM{A: a, Window: attention.Window{Sinks: scaleTo(128, n), Recent: scaleTo(8192, n)}},
		&baselines.TopK{A: a, Window: win, K: scaleTo(100, n)},
		&baselines.TopK{A: a, Window: win, K: scaleTo(2000, n)},
		&baselines.DIPRS{A: a},
	}
}

// scaleTo maps a token count defined at the paper's 131K scale to context
// length n, with a floor of 4.
func scaleTo(paperTokens, n int) int {
	v := paperTokens * n / 131072
	if v < 4 {
		v = 4
	}
	return v
}

func betaFor(dim int) float32 {
	// The paper's Table 5 uses beta=50 at d=128 (alpha ≈ 1.2%). The
	// substrate's flatter logit landscape calls for a tighter range —
	// beta 17.6 at d=128 (alpha ≈ 21%) spans the distractor-to-answer
	// salience band of the task suite without flooding into noise.
	return 4.4 * float32(dim) / 32
}

func runTable5(s Scale, w io.Writer) error {
	m := model.New(s.Model)
	slo := ScaledSLO(s.ContextLen)
	suite := workload.InfinityBench()

	fmt.Fprintf(w, "Table 5: generation quality (context %d tokens, %d trials/task, scaled SLO %v)\n\n",
		s.ContextLen, s.Trials, slo)

	type methodAgg struct {
		quality map[string]*metrics.Quality // per task
		lat     metrics.Latency
	}
	var names []string
	agg := map[string]*methodAgg{}

	for _, p := range suite {
		for trial := 0; trial < s.Trials; trial++ {
			inst := workload.Generate(p, s.Seed+uint64(17*trial), s.ContextLen, 64, s.Model.Vocab)
			a := baselines.NewAssets(m, inst.Doc)
			if err := storeAssets(a, s); err != nil {
				return err
			}
			a.BuildCoarse(16, coarse.Bound)

			for _, meth := range table5Methods(a, s.ContextLen) {
				ma := agg[meth.Name()]
				if ma == nil {
					ma = &methodAgg{quality: map[string]*metrics.Quality{}}
					agg[meth.Name()] = ma
					names = append(names, meth.Name())
				}
				if ma.quality[p.Name] == nil {
					ma.quality[p.Name] = &metrics.Quality{}
				}

				out := workload.Evaluate(m, inst, func(layer, qHead int, q []float32) ([]float32, []int) {
					return meth.Attend(layer, qHead, q)
				})
				ma.quality[p.Name].Record(out.Correct)

				// TPOT: one full decode step across all layers and heads,
				// one head at a time for every method.
				start := time.Now()
				for l := 0; l < s.Model.Layers; l++ {
					for qh := 0; qh < s.Model.QHeads; qh++ {
						q := m.QueryVector(inst.Doc, l, qh, model.QuerySpec{
							FocusTopics: inst.Question, ContextLen: s.ContextLen})
						meth.Attend(l, qh, q)
					}
				}
				ma.lat.Record(time.Since(start))
			}
		}
	}

	header := []string{"method", "SLO"}
	for _, p := range suite {
		header = append(header, p.Name)
	}
	header = append(header, "Avg", "TPOT")
	t := &table{header: header}
	for _, name := range names {
		ma := agg[name]
		row := []string{name, yesNo(ma.lat.Mean() <= slo)}
		var sum float64
		for _, p := range suite {
			acc := ma.quality[p.Name].Accuracy()
			sum += acc
			row = append(row, f1(acc))
		}
		row = append(row, f1(sum/float64(len(suite))), ms(ma.lat.Mean()))
		t.add(row...)
	}
	t.write(w)
	fmt.Fprintln(w, "\npaper: DIPRS best average (47.0) while meeting the SLO; Top2000 comparable quality but violates the SLO;")
	fmt.Fprintln(w, "       StreamingLLM collapses on retrieval tasks; full attention violates the SLO")
	return nil
}
