package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/model"
)

// tinyScale keeps experiment smoke tests fast.
func tinyScale() Scale {
	cfg := model.Default()
	cfg.Layers = 2
	cfg.QHeads = 4
	cfg.KVHeads = 2
	cfg.Vocab = 32
	return Scale{
		ContextLen: 1024,
		Trials:     1,
		Workers:    2,
		Seed:       3,
		Model:      cfg,
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"ablation", "fig10", "fig11", "fig12", "fig5", "fig6", "fig9", "table3", "table4", "table5", "window"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registered experiments = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("experiment %d = %s, want %s", i, got[i], want[i])
		}
	}
	for _, name := range got {
		if Describe(name) == "" {
			t.Errorf("experiment %s has no description", name)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := Run("nope", Scale{}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestAllExperimentsRunAtTinyScale smoke-tests every runner end to end:
// each must complete and emit a non-trivial artefact.
func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests skipped in -short mode")
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(name, tinyScale(), &buf); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out := buf.String()
			if len(out) < 80 {
				t.Fatalf("%s produced almost no output:\n%s", name, out)
			}
			if !strings.Contains(out, "\n") {
				t.Fatalf("%s produced no table", name)
			}
		})
	}
}

func TestScaledSLO(t *testing.T) {
	// Paper scale: floor (10ms) + 240ms.
	if got := ScaledSLO(131072); got.Milliseconds() != 250 {
		t.Errorf("SLO at paper scale = %v", got)
	}
	if got := ScaledSLO(1024); got < 10e6 { // >= 10ms floor
		t.Errorf("SLO floor violated: %v", got)
	}
	if ScaledSLO(8192) >= ScaledSLO(16384) {
		t.Error("SLO not monotone in context length")
	}
}

func TestScaleTo(t *testing.T) {
	if got := scaleTo(4096, 131072); got != 4096 {
		t.Errorf("scaleTo identity = %d", got)
	}
	if got := scaleTo(128, 1024); got != 4 {
		t.Errorf("scaleTo floor = %d", got)
	}
}

func TestContextLadder(t *testing.T) {
	got := contextLadder(4096)
	if len(got) != 3 || got[2] != 4096 {
		t.Errorf("contextLadder(4096) = %v", got)
	}
	if got := contextLadder(100); len(got) != 1 || got[0] != 100 {
		t.Errorf("contextLadder(100) = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &table{header: []string{"a", "long-column"}}
	tab.add("x", "y")
	tab.add("wide-cell", "z")
	var buf bytes.Buffer
	tab.write(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("no separator: %q", lines[1])
	}
}
