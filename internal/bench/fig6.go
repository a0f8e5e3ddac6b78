package bench

import (
	"fmt"
	"io"

	"repro/internal/attention"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/workload"
)

func init() {
	register("fig6", "accuracy vs retrieved tokens: DIPR vs top-k on two tasks (Figure 6)", runFig6)
}

// runFig6 reproduces Figure 6: on both a passage-retrieval-like and a
// code-completion-like task, DIPR reaches higher accuracy with fewer
// retrieved tokens than fixed top-k, because it sizes the critical set per
// head and per query. Retrieval is exact (flat) for both query types, so
// the comparison isolates query semantics from index recall.
func runFig6(s Scale, w io.Writer) error {
	m := model.New(s.Model)
	win := attention.Window{Sinks: 16, Recent: 32}
	betaLadder := []float32{
		query.Beta(0.9, s.Model.HeadDim),
		query.Beta(0.7, s.Model.HeadDim),
		query.Beta(0.5, s.Model.HeadDim),
		query.Beta(0.3, s.Model.HeadDim),
		query.Beta(0.15, s.Model.HeadDim),
		query.Beta(0.05, s.Model.HeadDim),
	}
	ks := []int{5, 10, 25, 50, 100, 200}

	for _, taskName := range []string{"Passage R.", "LCC"} {
		p, err := workload.ProfileByName(taskName)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Figure 6 (%s): accuracy vs retrieved critical tokens (context %d, %d trials)\n\n",
			taskName, s.ContextLen, s.Trials)

		insts := make([]workload.Instance, s.Trials)
		caches := make([]*cacheBundle, s.Trials)
		for i := range insts {
			insts[i] = workload.Generate(p, s.Seed+uint64(31*i), s.ContextLen, 64, s.Model.Vocab)
			caches[i] = newCacheBundle(m, insts[i].Doc)
		}

		t := &table{header: []string{"query", "param", "avg tokens", "accuracy"}}
		for _, k := range ks {
			correct := 0
			for i := range insts {
				out := workload.Evaluate(m, insts[i], caches[i].topKAttend(win, k))
				if out.Correct {
					correct++
				}
			}
			t.add("Top-k", fmt.Sprintf("k=%d", k), fmt.Sprintf("%d", k),
				f1(100*float64(correct)/float64(s.Trials)))
		}
		for _, beta := range betaLadder {
			correct := 0
			var sizes []int
			for i := range insts {
				out := workload.Evaluate(m, insts[i], caches[i].diprAttend(win, beta, s.Workers, &sizes))
				if out.Correct {
					correct++
				}
			}
			var sum int
			for _, n := range sizes {
				sum += n
			}
			avg := 0
			if len(sizes) > 0 {
				avg = sum / len(sizes)
			}
			t.add("DIPR", fmt.Sprintf("beta=%.1f", beta), fmt.Sprintf("%d", avg),
				f1(100*float64(correct)/float64(s.Trials)))
		}
		t.write(w)
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "paper: DIPR reaches the accuracy plateau with fewer retrieved tokens on both tasks")
	return nil
}
