// Command alayabench regenerates the paper's tables and figures (§9) at a
// configurable scale.
//
// Usage:
//
//	alayabench -list
//	alayabench -exp table5
//	alayabench -exp all -context 8192 -trials 5
//
// Every experiment prints a textual table mirroring the paper artefact it
// reproduces, plus a note recalling the paper's reported shape. Serving
// performance is measured by the benchmark instead:
//
//	sh benchmark/run.sh --workload <name> --seed <n>
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/model"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment to run (see -list), or 'all'")
		list    = flag.Bool("list", false, "list available experiments")
		context = flag.Int("context", 4096, "context length in tokens")
		trials  = flag.Int("trials", 3, "task instances per cell")
		workers = flag.Int("workers", 2, "parallelism")
		seed    = flag.Uint64("seed", 1, "run seed")
		layers  = flag.Int("layers", 4, "model layers")
		qheads  = flag.Int("qheads", 8, "query heads per layer")
		kvheads = flag.Int("kvheads", 2, "kv heads per layer (GQA groups)")
	)
	flag.Parse()

	if *list {
		for _, name := range bench.Names() {
			fmt.Printf("  %-8s %s\n", name, bench.Describe(name))
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "alayabench: -exp required (or -list)")
		os.Exit(2)
	}

	cfg := model.Default()
	cfg.Layers = *layers
	cfg.QHeads = *qheads
	cfg.KVHeads = *kvheads
	scale := bench.Scale{
		ContextLen: *context,
		Trials:     *trials,
		Workers:    *workers,
		Seed:       *seed,
		Model:      cfg,
	}

	names := []string{*exp}
	if *exp == "all" {
		names = bench.Names()
	}
	for _, name := range names {
		fmt.Printf("=== %s: %s ===\n\n", name, bench.Describe(name))
		start := time.Now()
		if err := bench.Run(name, scale, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "alayabench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("\n[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}
