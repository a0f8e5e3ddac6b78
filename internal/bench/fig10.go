package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/attention"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/devmem"
	"repro/internal/index/graph"
	"repro/internal/model"
	"repro/internal/workload"
)

func init() {
	register("fig10", "TTFT of context reuse: w/o reuse vs LMCache vs AlayaDB (Figure 10)", runFig10)
}

// runFig10 reproduces Figure 10: the time to first token over stored long
// contexts. Without reuse the engine pays the O(n²) prefill; LMCache-style
// disaggregation reloads (dequantize + transfer) the whole KV cache before
// decoding; AlayaDB decodes directly on the offloaded cache through its
// indexes, so its TTFT is nearly flat in context length.
func runFig10(s Scale, w io.Writer) error {
	m := model.New(s.Model)
	dev := devmem.New(0) // bandwidth model only
	lengths := contextLadder(s.ContextLen)

	fmt.Fprintf(w, "Figure 10(a): TTFT vs context length (%d trials)\n\n", s.Trials)
	t := &table{header: []string{"context", "w/o reuse", "LMCache", "AlayaDB", "speedup vs LMCache"}}

	type breakdown struct {
		n                int
		lmLoad, lmDecode time.Duration
		alLoad, alDecode time.Duration
	}
	var bds []breakdown

	for _, n := range lengths {
		p, _ := workload.ProfileByName("En.QA")
		inst := workload.Generate(p, s.Seed, n, 64, s.Model.Vocab)

		// Baseline 1: no reuse — full prefill (strided to keep wall clock
		// sane; the quadratic term is preserved and scaled back).
		prefill := &baselines.Prefill{Model: m, Stride: prefillStride(n)}
		tPrefill := prefill.TTFT(inst.Doc)

		// Baseline 2: LMCache-style disaggregation.
		lm := &baselines.LMCache{Model: m, Device: dev}
		lm.Store(inst.Doc)
		var lmTotal, lmLoad, lmDecode time.Duration
		for trial := 0; trial < s.Trials; trial++ {
			bd := lm.TTFT(inst.Doc, inst.Question[0])
			lmTotal += bd.Total
			lmLoad += bd.Load
			lmDecode += bd.Decode
		}
		lmTotal /= time.Duration(s.Trials)
		lmLoad /= time.Duration(s.Trials)
		lmDecode /= time.Duration(s.Trials)

		// AlayaDB: the context and its index are stored in advance (as in
		// the paper); TTFT is the first decode step on the offloaded cache.
		db, err := core.New(core.Config{
			Model:         m,
			Device:        devmem.New(0),
			Window:        attention.Window{Sinks: scaleTo(128, n) + 4, Recent: scaleTo(512, n)},
			LongThreshold: 256,
			Graph:         graph.Config{Degree: 16, QueryKNN: 12, EfConstruction: 64, Workers: s.Workers},
			Beta:          betaFor(s.Model.HeadDim),
		})
		if err != nil {
			return err
		}
		if _, err := db.ImportDoc(inst.Doc); err != nil {
			return err
		}
		var alTotal, alDecode time.Duration
		for trial := 0; trial < s.Trials; trial++ {
			sess, reused := db.CreateSession(inst.Doc)
			if reused != n {
				return fmt.Errorf("fig10: reused %d of %d", reused, n)
			}
			start := time.Now()
			for l := 0; l < s.Model.Layers; l++ {
				for qh := 0; qh < s.Model.QHeads; qh++ {
					q := m.QueryVector(inst.Doc, l, qh, model.QuerySpec{
						FocusTopics: inst.Question, ContextLen: n})
					sess.Attention(l, qh, q)
				}
			}
			alTotal += time.Since(start)
			sess.Close()
		}
		alTotal /= time.Duration(s.Trials)
		alDecode = alTotal // AlayaDB has no load phase: decode is the whole TTFT
		db.Close()

		t.add(fmt.Sprintf("%d", n), fmtDur(tPrefill), fmtDur(lmTotal), fmtDur(alTotal),
			fmt.Sprintf("%.1fx", float64(lmTotal)/float64(alTotal)))
		bds = append(bds, breakdown{n: n, lmLoad: lmLoad, lmDecode: lmDecode, alLoad: 0, alDecode: alDecode})
	}
	t.write(w)

	fmt.Fprintf(w, "\nFigure 10(b): latency breakdown (load vs decode)\n\n")
	bt := &table{header: []string{"context", "system", "load", "decode"}}
	for _, bd := range []breakdown{bds[0], bds[len(bds)-1]} {
		bt.add(fmt.Sprintf("%d", bd.n), "LMCache", fmtDur(bd.lmLoad), fmtDur(bd.lmDecode))
		bt.add(fmt.Sprintf("%d", bd.n), "AlayaDB", fmtDur(bd.alLoad), fmtDur(bd.alDecode))
	}
	bt.write(w)
	fmt.Fprintln(w, "\npaper: AlayaDB 19-42x faster than LMCache (whose load grows linearly); 2-3 orders over no-reuse prefill")
	return nil
}

// contextLadder yields the sweep lengths up to the configured maximum.
func contextLadder(maxLen int) []int {
	ladder := []int{1024, 2048, 4096, 8192, 16384, 32768}
	var out []int
	for _, n := range ladder {
		if n <= maxLen {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []int{maxLen}
	}
	return out
}

// prefillStride keeps the strided prefill around a second of wall clock.
func prefillStride(n int) int {
	switch {
	case n <= 2048:
		return 4
	case n <= 8192:
		return 16
	default:
		return 64
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.0fus", float64(d.Nanoseconds())/1000)
	}
}
