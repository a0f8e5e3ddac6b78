// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (§9), each regenerating the artefact's rows or
// series at a configurable scale. `alayabench -list` prints the index.
// Serving performance is not measured here but by benchmark/ (see
// benchmark/README.md).
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/index/graph"
	"repro/internal/model"
	"repro/internal/vec"
)

// Scale bundles the knobs every experiment shares. The defaults target a
// 2-CPU container; Paper-scale runs raise ContextLen and Trials.
type Scale struct {
	// ContextLen is the long-context size in tokens (default 4096).
	ContextLen int
	// Trials is the number of task instances per cell (default 3).
	Trials int
	// Workers bounds parallelism (default 2).
	Workers int
	// Seed namespaces the whole run.
	Seed uint64
	// Model overrides the substrate configuration (zero = model.Default
	// with 4 layers to keep runs tractable).
	Model model.Config
}

// Defaults fills unset fields.
func (s *Scale) Defaults() {
	if s.ContextLen == 0 {
		s.ContextLen = 4096
	}
	if s.Trials == 0 {
		s.Trials = 3
	}
	if s.Workers == 0 {
		s.Workers = 2
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Model.Layers == 0 {
		s.Model = model.Default()
		s.Model.Layers = 4
	}
}

// Runner executes one experiment, writing its artefact to w.
type Runner func(s Scale, w io.Writer) error

// registry maps experiment ids to runners; populated by init functions in
// the per-experiment files.
var registry = map[string]entry{}

type entry struct {
	runner Runner
	desc   string
}

func register(name, desc string, r Runner) {
	registry[name] = entry{runner: r, desc: desc}
}

// Run executes the named experiment.
func Run(name string, s Scale, w io.Writer) error {
	e, ok := registry[name]
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q (try: %s)", name, strings.Join(Names(), ", "))
	}
	s.Defaults()
	return e.runner(s, w)
}

// Names lists registered experiments, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Describe returns an experiment's one-line description.
func Describe(name string) string {
	if e, ok := registry[name]; ok {
		return e.desc
	}
	return ""
}

// table renders rows with aligned columns.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}

func yesNo(ok bool) string {
	if ok {
		return "yes"
	}
	return "no"
}

// trainingFor synthesizes the GQA-shared training queries for one
// (layer, kv head), at the harness's default sampling rate.
func trainingFor(m *model.Model, doc *model.Document, layer, kvHead int) *vec.Matrix {
	return core.TrainingQueries(m, doc, layer, m.QueryHeadsOf(kvHead), 0.3)
}

// buildGraphFor constructs a graph index with the harness's default
// construction parameters.
func buildGraphFor(keys *vec.Matrix, queries *vec.Matrix, workers int) *graph.Graph {
	return graph.Build(keys, queries, graph.Config{
		Degree: 16, QueryKNN: 12, EfConstruction: 64, Workers: workers})
}
