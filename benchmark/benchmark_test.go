package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the test reads.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smokeRun runs one workload at smoke scale, sized by request count: six
// requests per client take churn-sq8-stream through every kind of request
// it has (extend, diverge, cold ingest, CoW store); three are plenty
// elsewhere.
func smokeRun(t *testing.T, workload string, trace bool, clients int) (*result, string) {
	t.Helper()
	requests := 3
	if workload == wlChurn {
		requests = 6
	}
	var report bytes.Buffer
	res, err := run(options{workload: workload, seed: 7, smoke: true, requests: requests, clients: clients,
		trace: trace, outDir: t.TempDir()}, &report)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", workload, res.Correct, res.Attempted, res.Failed, report.String())
	}
	return res, report.String()
}

// checkMetrics asserts every named metric is reported exactly once — in
// the result and in the printed report — with its unit and a finite value.
func checkMetrics(t *testing.T, workload string, want []struct{ Name, Unit string }, res *result, report string) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json lists %d", workload, len(res.Metrics), len(want))
	}
	printed := map[string]int{}
	for _, line := range strings.Split(report, "\n") {
		if f := strings.Fields(line); len(f) == 3 {
			printed[f[0]]++
		}
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing from the result", workload, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", workload, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s is not finite: %v", workload, m.Name, got.Value)
		}
		if printed[m.Name] != 1 {
			t.Errorf("%s: metric %s printed %d times, want once", workload, m.Name, printed[m.Name])
		}
	}
}

// TestSmoke runs every workload, and one traced run, at smoke scale: an API
// change that breaks the benchmark, or a workload that stops planning what
// its name says, fails in the change that causes it.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
		res, report := smokeRun(t, w.Name, false, 0)
		checkMetrics(t, w.Name, spec.EndToEnd, res, report)
		for _, m := range spec.EndToEnd {
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; end-to-end metrics must never be 0", w.Name, m.Name, res.Metrics[m.Name].Value)
			}
		}
	}
	res, report := smokeRun(t, wlCluster, true, 0)
	checkMetrics(t, wlCluster+" traced", spec.PerLayer, res, report)
}

// TestDeterminism: with one client and one seed, everything the run counts
// (as opposed to times) repeats exactly — inputs come from the seed alone.
func TestDeterminism(t *testing.T) {
	counts := map[bool][]string{
		false: {"task_accuracy", "out_fidelity", "stored_mb", "device_peak_mb"},
		true: {"core.prefix_lookups", "core.prefix_hits", "core.prefix_spill_hits", "core.cow_stores", "core.evictions",
			"core.tier.spills", "core.tier.spill_errors", "core.tier.reload_errors", "core.reload_share",
			"core.plan.full_frac", "core.plan.dipr_fine_frac", "core.plan.dipr_flat_frac", "core.plan.filtered_frac",
			"core.flat_fallbacks", "core.retrieved_per_query", "core.explored_per_query", "core.reranked_per_query",
			"core.attended_per_query", "core.recovery_ratio", "serve.sched.admitted", "serve.sched.rejected",
			"serve.endpoint.errors", "serve.frame.bytes_per_step"},
	}
	for _, trace := range []bool{false, true} {
		a, _ := smokeRun(t, wlChurn, trace, 1)
		b, _ := smokeRun(t, wlChurn, trace, 1)
		if a.Attempted != b.Attempted || a.Failed != b.Failed {
			t.Errorf("trace=%v: attempted/failed %d/%d then %d/%d", trace, a.Attempted, a.Failed, b.Attempted, b.Failed)
		}
		for _, name := range counts[trace] {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				t.Errorf("trace=%v: %s was %v, then %v on the same seed", trace, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
	}
}
