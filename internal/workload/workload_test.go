package workload

import (
	"testing"

	"repro/internal/attention"
	"repro/internal/model"
)

func testModel() *model.Model {
	cfg := model.Default()
	cfg.Layers = 3
	cfg.QHeads = 4
	cfg.KVHeads = 2
	cfg.Vocab = 32
	return model.New(cfg)
}

func TestSuitesWellFormed(t *testing.T) {
	for _, p := range append(InfinityBench(), LongBench()...) {
		if p.Name == "" || p.Critical <= 0 {
			t.Errorf("malformed profile %+v", p)
		}
		if p.Salience <= 0 || p.Salience > 1.01 {
			t.Errorf("profile %s salience %v", p.Name, p.Salience)
		}
		if p.Decoys > 0 && p.DecoySalience <= 0 {
			t.Errorf("profile %s has decoys without salience", p.Name)
		}
		// Stronger-decoy profiles must keep decoys a small minority, or
		// full attention itself would decode the wrong answer.
		if p.DecoySalience > p.Salience && p.Decoys*3 > p.Critical {
			t.Errorf("profile %s: %d strong decoys vs %d criticals", p.Name, p.Decoys, p.Critical)
		}
	}
	if len(InfinityBench()) != 8 {
		t.Errorf("∞-Bench suite has %d tasks, want 8", len(InfinityBench()))
	}
	if len(LongBench()) != 6 {
		t.Errorf("LongBench suite has %d tasks, want 6", len(LongBench()))
	}
}

func TestLongBenchOrderedByCriticalCount(t *testing.T) {
	suite := LongBench()
	for i := 1; i < len(suite); i++ {
		if suite[i-1].Critical <= suite[i].Critical {
			t.Errorf("LongBench not ordered: %s (%d) before %s (%d)",
				suite[i-1].Name, suite[i-1].Critical, suite[i].Name, suite[i].Critical)
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("En.QA")
	if err != nil || p.Name != "En.QA" {
		t.Errorf("ProfileByName: %v, %v", p, err)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ProfileByName("Retr.KV")
	a := Generate(p, 42, 1000, 64, 32)
	b := Generate(p, 42, 1000, 64, 32)
	if a.Answer != b.Answer || a.Question[0] != b.Question[0] {
		t.Fatal("instances differ across identical generations")
	}
	for i := range a.Critical {
		if a.Critical[i] != b.Critical[i] {
			t.Fatal("critical positions differ")
		}
	}
	c := Generate(p, 43, 1000, 64, 32)
	if c.Answer == a.Answer && c.Critical[0] == a.Critical[0] {
		t.Error("different seeds produced identical instances")
	}
}

func TestGenerateInvariants(t *testing.T) {
	for _, p := range append(InfinityBench(), LongBench()...) {
		inst := Generate(p, 7, 2000, 64, 32)
		if len(inst.Critical) != p.Critical {
			t.Errorf("%s: planted %d criticals, want %d", p.Name, len(inst.Critical), p.Critical)
		}
		seen := map[int]bool{}
		for _, pos := range inst.Critical {
			if pos < 8 || pos >= 2000 {
				t.Errorf("%s: critical at %d (sink region or out of range)", p.Name, pos)
			}
			if seen[pos] {
				t.Errorf("%s: duplicate critical %d", p.Name, pos)
			}
			seen[pos] = true
			tok := inst.Doc.Tokens[pos]
			if tok.Topic != inst.Question[0] || tok.Payload != inst.Answer {
				t.Errorf("%s: critical token mismatch %+v", p.Name, tok)
			}
			if tok.Salience != p.Salience {
				t.Errorf("%s: salience %v, want %v", p.Name, tok.Salience, p.Salience)
			}
		}
		for _, pos := range inst.Decoys {
			if seen[pos] {
				t.Errorf("%s: decoy overlaps critical at %d", p.Name, pos)
			}
			if inst.Doc.Tokens[pos].Payload == inst.Answer {
				t.Errorf("%s: decoy carries the answer", p.Name)
			}
		}
		if len(inst.Decoys) != p.Decoys {
			t.Errorf("%s: %d decoys, want %d", p.Name, len(inst.Decoys), p.Decoys)
		}
	}
}

func TestTailBiasPlacement(t *testing.T) {
	p, _ := ProfileByName("LCC")
	inst := Generate(p, 9, 4000, 64, 32)
	for _, pos := range inst.Critical {
		if pos < 4000-4000/8 {
			t.Errorf("tail-biased critical at %d (context 4000)", pos)
		}
	}
}

func TestGenerateBadProfilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for oversized critical set")
		}
	}()
	Generate(Profile{Name: "bad", Critical: 600}, 1, 1000, 64, 32)
}

// TestEvaluateFullAttentionSolvesTasks: with exact full attention every
// task's answer must decode correctly — the model substrate's contract.
func TestEvaluateFullAttentionSolvesTasks(t *testing.T) {
	m := testModel()
	for _, p := range InfinityBench() {
		inst := Generate(p, 11, 1500, 64, 32)
		cache := m.BuildKV(inst.Doc)
		out := Evaluate(m, inst, func(layer, qHead int, q []float32) ([]float32, []int) {
			kv := m.KVGroup(qHead)
			return attention.Full(q, cache.Keys(layer, kv), cache.Values(layer, kv)), nil
		})
		if !out.Correct {
			t.Errorf("%s: full attention decoded wrong answer", p.Name)
		}
		if out.Recovery != 1 {
			t.Errorf("%s: recovery without attended sets = %v", p.Name, out.Recovery)
		}
	}
}

// TestEvaluateWindowOnlyFailsRetrieval: StreamingLLM-style window attention
// must fail mid-context retrieval tasks and show near-zero recovery.
func TestEvaluateWindowOnlyFailsRetrieval(t *testing.T) {
	m := testModel()
	p, _ := ProfileByName("Retr.P")
	win := attention.Window{Sinks: 8, Recent: 32}
	failures := 0
	const trials = 5
	for trial := 0; trial < trials; trial++ {
		inst := Generate(p, uint64(20+trial), 1500, 64, 32)
		cache := m.BuildKV(inst.Doc)
		out := Evaluate(m, inst, func(layer, qHead int, q []float32) ([]float32, []int) {
			kv := m.KVGroup(qHead)
			idx := win.Indices(cache.SeqLen(layer))
			return attention.Sparse(q, cache.Keys(layer, kv), cache.Values(layer, kv), idx), idx
		})
		if !out.Correct {
			failures++
		}
		if out.Recovery > 0.8 {
			t.Errorf("trial %d: window-only recovery = %v, expected low", trial, out.Recovery)
		}
	}
	if failures < trials-1 {
		t.Errorf("window-only solved %d/%d retrieval tasks; should fail nearly all", trials-failures, trials)
	}
}

// TestEvaluateOracleSparseSolvesTasks: attending exactly the planted
// critical set plus the window solves the task with high recovery — the
// premise of retrieval-based sparse attention.
func TestEvaluateOracleSparseSolvesTasks(t *testing.T) {
	m := testModel()
	win := attention.Window{Sinks: 8, Recent: 32}
	for _, name := range []string{"Retr.P", "En.MC", "En.QA"} {
		p, _ := ProfileByName(name)
		inst := Generate(p, 31, 1500, 64, 32)
		cache := m.BuildKV(inst.Doc)
		out := Evaluate(m, inst, func(layer, qHead int, q []float32) ([]float32, []int) {
			kv := m.KVGroup(qHead)
			o := win.SparseWindowed(q, cache.Keys(layer, kv), cache.Values(layer, kv), inst.Critical)
			return o, win.Union(inst.Critical, cache.SeqLen(layer))
		})
		if !out.Correct {
			t.Errorf("%s: oracle sparse decoded wrong answer", name)
		}
		// Absolute recovery is depressed by the substrate's heavier flat
		// attention tail; what must hold is a clear margin over
		// window-only attention (tested above) and a sane floor here.
		if out.Recovery < 0.25 {
			t.Errorf("%s: oracle sparse recovery = %v, want >= 0.25", name, out.Recovery)
		}
	}
}
