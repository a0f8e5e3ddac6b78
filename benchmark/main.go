// Command benchmark is AlayaDB's one benchmark: four request-shaped
// workloads, each driven closed-loop through its own client path against
// servers started in-process on loopback, reporting the end-to-end metrics
// a user of the service would see — and, in a separate traced run, where a
// step's time goes layer by layer. See README.md in this directory for the
// workload and metric definitions and the recorded choices.
//
//	go run ./benchmark -workload long-local -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (every end-to-end metric with -trace 0, every
// per-layer metric with -trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options is one run's command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	// requests > 0 sizes every phase by request count per client instead of
	// wall time, so sample counts — and with one client, every count the
	// program reports — repeat exactly.
	requests int
	clients  int
	outDir   string // scratch space: spill tier, trace files; removed or overwritten per run
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	var scale string
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics; 0 = untraced run reporting end-to-end metrics")
	flag.StringVar(&scale, "scale", "full", "full, or smoke (contexts and thresholds ÷ 8) for the tier-1 test")
	flag.IntVar(&o.requests, "requests", 0, "size phases by this many requests per client instead of -seconds")
	flag.IntVar(&o.clients, "clients", 0, "closed-loop clients (default min(nproc, 4))")
	flag.StringVar(&o.outDir, "out", ".bench_build", "scratch directory for the spill tier and trace files")
	flag.Parse()
	o.trace = trace != 0
	o.smoke = scale == "smoke"
	if scale != "full" && scale != "smoke" {
		fmt.Fprintf(os.Stderr, "benchmark: unknown -scale %q\n", scale)
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(3)
	}
}

func defaultClients() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// run executes one benchmark run, writing the human-readable report to w.
func run(o options, w io.Writer) (*result, error) {
	if o.clients <= 0 {
		o.clients = defaultClients()
	}
	if o.seconds <= 0 && o.requests <= 0 {
		return nil, fmt.Errorf("-seconds or -requests must be positive")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	b, setupS, err := setUp(o, scratch)
	if err != nil {
		return nil, err
	}
	defer b.close()

	fmt.Fprintf(w, "workload %s  seed %d  clients %d  scale %s  trace %v\n", o.workload, o.seed, o.clients, scaleName(o.smoke), o.trace)
	if o.trace {
		return b.tracedRun(o, w, setupS)
	}
	before := b.snapshot()
	ph := b.runPhase(o.seconds, o.requests, false, 0, 1)
	delta := b.snapshot().since(before)
	v := b.verify(ph.rec)
	b.checkState(ph.rec, delta, &v)
	metrics := b.endToEnd(ph, v, setupS)
	report(w, ph, delta, v, metrics, endToEndMetrics)
	sent, failed := ph.rec.attempted()
	return &result{Correct: len(v.violations) == 0, Attempted: sent, Failed: failed, Metrics: metrics}, nil
}

// setupRepeatBudget is how long set-up is repeated for: a set-up that takes
// a fraction of a second is dominated by scheduling noise, so cheap
// set-ups are torn down and rebuilt (up to setupRepeatMax times) while
// the total stays under the budget, and setup_s is the median. A run sized
// by -requests (the tier-1 test) sets up once.
const (
	setupRepeatBudget = 3 * time.Second
	setupRepeatMax    = 5
)

// setUp assembles the workload and runs the untimed warm-up request per
// client (connections, arena pools and direction caches warm up there; it
// is part of set-up, not of the measured phase). It returns the bench and
// the median wall time of one complete set-up.
func setUp(o options, scratch string) (*bench, float64, error) {
	var times []float64
	start := time.Now()
	for {
		t0 := time.Now()
		dir := filepath.Join(scratch, fmt.Sprintf("setup-%d", len(times)))
		b, err := newBench(o.workload, o.smoke, o.seed, o.clients, dir)
		if err != nil {
			return nil, 0, err
		}
		warm := b.runPhase(0, 1, false, 0, 0)
		if len(warm.rec.violations) > 0 {
			b.close()
			return nil, 0, fmt.Errorf("warm-up failed: %s", strings.Join(warm.rec.violations, "; "))
		}
		times = append(times, time.Since(t0).Seconds())
		if o.requests > 0 || len(times) == setupRepeatMax || time.Since(start)+time.Since(t0) > setupRepeatBudget {
			return b, median(times), nil
		}
		b.close()
	}
}

func scaleName(smoke bool) string {
	if smoke {
		return "smoke"
	}
	return "full"
}

// metricDef names one metric; the lists below are the program's side of
// BENCHMARK.json (the tier-1 test checks the two agree).
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"decode_tok_s", "tokens/s"},
	{"tpot_p50_ms", "ms"},
	{"tpot_p90_ms", "ms"},
	{"ttft_p50_ms", "ms"},
	{"ttft_p95_ms", "ms"},
	{"task_accuracy", "ratio"},
	{"out_fidelity", "ratio"},
	{"stored_mb", "MB"},
	{"device_peak_mb", "MB"},
}

// endToEnd computes the user-visible metrics of an untraced phase.
func (b *bench) endToEnd(ph phase, v verdict, setupS float64) map[string]metric {
	rec := ph.rec
	var stored, peak int64
	for _, n := range b.nodes {
		stored += n.db.StoredBytes()
		peak += n.dev.Peak() - b.m.WeightsBytes()
	}
	vals := map[string]float64{
		"setup_s":        setupS,
		"decode_tok_s":   float64(rec.steps) / ph.wall.Seconds(),
		"tpot_p50_ms":    percentile(rec.tpot, 0.50),
		"tpot_p90_ms":    percentile(rec.tpot, 0.90),
		"ttft_p50_ms":    percentile(rec.ttft, 0.50),
		"ttft_p95_ms":    percentile(rec.ttft, 0.95),
		"task_accuracy":  v.accuracy,
		"out_fidelity":   1 / (1 + v.outRelErr),
		"stored_mb":      float64(stored) / 1e6,
		"device_peak_mb": float64(peak) / 1e6,
	}
	return toMetrics(vals, endToEndMetrics)
}

func toMetrics(vals map[string]float64, defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		x := vals[d.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[d.name] = metric{Value: x, Unit: d.unit}
	}
	return out
}

// report prints the run in readable form: per-phase sent/ok/failed counts,
// latency by request kind, the checks, then every metric by name with its
// unit.
func report(w io.Writer, ph phase, delta counters, v verdict, metrics map[string]metric, defs []metricDef) {
	rec := ph.rec
	sent, failed := rec.attempted()
	fmt.Fprintf(w, "measured phase: %.2f s wall, %d requests, %d steps\n", ph.wall.Seconds(), rec.requests, rec.steps)
	fmt.Fprintf(w, "operations (sent/ok/failed):")
	for i, o := range rec.ops {
		fmt.Fprintf(w, "  %s %d/%d/%d", opNames[i], o.sent, o.sent-o.failed, o.failed)
	}
	fmt.Fprintf(w, "\nfail_frac %.6f (%d of %d)\n", float64(failed)/math.Max(float64(sent), 1), failed, sent)
	kinds := make([]string, 0, len(rec.ttftByKind))
	for k := range rec.ttftByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  kind %-9s requests %5d  ttft p50 %9.3f ms  tpot p50 %8.3f ms (%d samples)\n",
			k, len(rec.ttftByKind[k]), median(rec.ttftByKind[k]), median(rec.tpotByKind[k]), len(rec.tpotByKind[k]))
	}
	plans := make([]string, 0, len(rec.plans))
	for p, n := range rec.plans {
		plans = append(plans, fmt.Sprintf("%s×%d", p, n))
	}
	sort.Strings(plans)
	fmt.Fprintf(w, "plans: %s\n", strings.Join(plans, "  "))
	fmt.Fprintf(w, "samples: tpot %d, ttft %d; out_rel_err %.4g over %d sampled outputs; %d of %d planted questions answered\n",
		len(rec.tpot), len(rec.ttft), v.outRelErr, v.samples, int(math.Round(v.accuracy*float64(v.questions))), v.questions)
	fmt.Fprintf(w, "store: %.0f prefix lookups, %.0f hits, %.0f from spill (reload share %.3f), %.0f evictions, %.0f spills, %.0f CoW stores, %.0f index builds\n",
		delta.prefixLookups, delta.prefixHits, delta.prefixSpillHits, ratio(delta.prefixSpillHits, float64(rec.ops[opCreate].sent)),
		delta.evictions, delta.spills, delta.cowStores, delta.indexBuilds)
	if rec.reuseMisses > 0 {
		fmt.Fprintf(w, "creates that could not reuse their base (evicted and mid-spill): %d\n", rec.reuseMisses)
	}
	if len(v.wrong) > 0 {
		fmt.Fprintf(w, "wrong answers by kind/task: %v\n", v.wrong)
	}
	for _, msg := range v.violations {
		fmt.Fprintf(w, "VIOLATION: %s\n", msg)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-40s %16.6g %s\n", d.name, metrics[d.name].Value, d.unit)
	}
}

// tracePath is where a traced run writes its spans.
func tracePath(o options) string {
	return filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
}
