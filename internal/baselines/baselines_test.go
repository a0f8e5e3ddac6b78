package baselines

import (
	"testing"
	"time"

	"repro/internal/attention"
	"repro/internal/devmem"
	"repro/internal/index/coarse"
	"repro/internal/index/graph"
	"repro/internal/model"
	"repro/internal/vec"
	"repro/internal/workload"
)

func testModel() *model.Model {
	cfg := model.Default()
	cfg.Layers = 3
	cfg.QHeads = 4
	cfg.KVHeads = 2
	cfg.Vocab = 32
	return model.New(cfg)
}

func buildAssets(t *testing.T, inst workload.Instance, m *model.Model) *Assets {
	t.Helper()
	a := NewAssets(m, inst.Doc)
	a.BuildGraphs(graph.Config{Degree: 12, QueryKNN: 8, EfConstruction: 48, Workers: 2}, 0.4)
	a.BuildCoarse(16, coarse.Bound)
	return a
}

var testWindow = attention.Window{Sinks: 8, Recent: 32}

func methodsUnderTest(a *Assets) []Method {
	return []Method{
		&Full{A: a},
		&StreamingLLM{A: a, Window: testWindow},
		&InfLLM{A: a, Window: testWindow, Budget: 256},
		&TopK{A: a, Window: testWindow, K: 50},
		&DIPRS{A: a, Window: testWindow, Beta: 7.8},
	}
}

// TestTable5Shape is the miniature Table 5: on a needle-retrieval task,
// full attention, InfLLM, top-k and DIPRS must answer correctly while
// StreamingLLM must fail (its window drops the needle).
func TestTable5Shape(t *testing.T) {
	m := testModel()
	p, err := workload.ProfileByName("Retr.P")
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.Generate(p, 5, 1500, 64, 32)
	a := buildAssets(t, inst, m)

	results := map[string]bool{}
	for _, meth := range methodsUnderTest(a) {
		out := workload.Evaluate(m, inst, func(layer, qHead int, q []float32) ([]float32, []int) {
			return meth.Attend(layer, qHead, q)
		})
		results[meth.Name()] = out.Correct
	}
	for _, name := range []string{"Full Attention", "InfLLM", "Top50", "DIPRS"} {
		if !results[name] {
			t.Errorf("%s failed the retrieval task", name)
		}
	}
	if results["StreamingLLM"] {
		t.Error("StreamingLLM solved a mid-context retrieval task; its window should drop the needle")
	}
}

// TestDeviceBytesOrdering reproduces the memory column of Table 1 /
// Figure 9: full > InfLLM > StreamingLLM ≈ TopK ≈ DIPRS.
func TestDeviceBytesOrdering(t *testing.T) {
	m := testModel()
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 6, 1500, 64, 32)
	a := buildAssets(t, inst, m)

	full := (&Full{A: a}).DeviceBytes()
	inf := (&InfLLM{A: a, Window: testWindow, Budget: 256}).DeviceBytes()
	stream := (&StreamingLLM{A: a, Window: testWindow}).DeviceBytes()
	topk := (&TopK{A: a, Window: testWindow, K: 50}).DeviceBytes()
	diprs := (&DIPRS{A: a, Window: testWindow, Beta: 7.8}).DeviceBytes()

	if !(full > inf && inf > stream) {
		t.Errorf("memory ordering wrong: full=%d inf=%d stream=%d", full, inf, stream)
	}
	if topk != stream || diprs != stream {
		t.Errorf("fine-grained methods should hold only the window: topk=%d diprs=%d stream=%d", topk, diprs, stream)
	}
}

// TestDIPRSAdaptsRetrievalSize: on a single-needle task DIPRS retrieves
// few tokens; on a broad-passage task it retrieves many — with the same β.
func TestDIPRSAdaptsRetrievalSize(t *testing.T) {
	m := testModel()
	needle, _ := workload.ProfileByName("Retr.P")
	broad, _ := workload.ProfileByName("En.Sum")

	sizes := map[string]int{}
	for _, tc := range []struct {
		name string
		p    workload.Profile
	}{{"needle", needle}, {"broad", broad}} {
		inst := workload.Generate(tc.p, 8, 1500, 64, 32)
		a := NewAssets(m, inst.Doc)
		a.BuildGraphs(graph.Config{Degree: 12, QueryKNN: 8, EfConstruction: 48, Workers: 2}, 0.4)
		d := &DIPRS{A: a, Window: testWindow, Beta: 7.8}
		hr := m.RetrievalHeads()[0]
		q := m.QueryVector(inst.Doc, hr.Layer, hr.QHead, model.QuerySpec{
			FocusTopics: inst.Question, ContextLen: inst.Doc.Len()})
		_, attended := d.Attend(hr.Layer, hr.QHead, q)
		sizes[tc.name] = len(attended)
	}
	if sizes["broad"] <= sizes["needle"]*2 {
		t.Errorf("DIPRS did not adapt: needle=%d broad=%d", sizes["needle"], sizes["broad"])
	}
}

func TestInfLLMRequiresCoarse(t *testing.T) {
	m := testModel()
	doc := model.NewFiller(9, 300, 32, 32)
	a := NewAssets(m, doc)
	defer func() {
		if recover() == nil {
			t.Fatal("InfLLM without coarse index did not panic")
		}
	}()
	(&InfLLM{A: a, Window: testWindow, Budget: 64}).Attend(0, 0, make([]float32, 128))
}

func TestTopKRequiresGraphs(t *testing.T) {
	m := testModel()
	doc := model.NewFiller(10, 300, 32, 32)
	a := NewAssets(m, doc)
	defer func() {
		if recover() == nil {
			t.Fatal("TopK without graphs did not panic")
		}
	}()
	(&TopK{A: a, Window: testWindow, K: 10}).Attend(0, 0, make([]float32, 128))
}

func TestPrefillTTFTScalesQuadratically(t *testing.T) {
	m := testModel()
	p := &Prefill{Model: m, Stride: 8}
	short := model.NewFiller(11, 256, 32, 32)
	long := model.NewFiller(12, 1024, 32, 32)
	// One wall-clock run is at the mercy of whatever else shares the CPU;
	// the minimum of several is the stable estimate of the work itself.
	minTTFT := func(doc *model.Document) time.Duration {
		best := p.TTFT(doc)
		for i := 1; i < 5; i++ {
			best = min(best, p.TTFT(doc))
		}
		return best
	}
	tShort := minTTFT(short)
	tLong := minTTFT(long)
	if tShort <= 0 || tLong <= 0 {
		t.Fatalf("non-positive TTFT: %v, %v", tShort, tLong)
	}
	// 4x the context must cost well over 4x (quadratic work): allow slack
	// for constant overheads but demand clear super-linearity.
	if ratio := float64(tLong) / float64(tShort); ratio < 6 {
		t.Errorf("prefill scaling ratio = %v, want >= 6 (quadratic)", ratio)
	}
}

func TestPrefillEmptyDoc(t *testing.T) {
	m := testModel()
	p := &Prefill{Model: m}
	if got := p.TTFT(&model.Document{Seed: 1}); got != 0 {
		t.Errorf("TTFT(empty) = %v", got)
	}
}

func TestLMCacheRoundTripAndTTFT(t *testing.T) {
	m := testModel()
	dev := devmem.New(0)
	dev.SetBandwidth(25)
	doc := model.NewFiller(13, 600, 32, 32)
	lm := &LMCache{Model: m, Device: dev}
	lm.Store(doc)

	// Quantized volume must be roughly a quarter of raw (int8 vs f32).
	raw := m.BuildKV(doc).Bytes()
	stored := lm.StoredBytes()
	if stored >= raw/2 || stored <= raw/8 {
		t.Errorf("stored bytes = %d vs raw %d; expected ~raw/4", stored, raw)
	}

	bd := lm.TTFT(doc, 3)
	if bd.Load <= 0 || bd.Decode <= 0 || bd.Total != bd.Load+bd.Decode {
		t.Errorf("breakdown inconsistent: %+v", bd)
	}
}

func TestLMCacheTTFTBeforeStorePanics(t *testing.T) {
	lm := &LMCache{Model: testModel()}
	defer func() {
		if recover() == nil {
			t.Fatal("TTFT before Store did not panic")
		}
	}()
	lm.TTFT(&model.Document{Seed: 1}, 0)
}

func TestQuantizeDequantizeError(t *testing.T) {
	m := testModel()
	doc := model.NewFiller(14, 100, 32, 32)
	cache := m.BuildKV(doc)
	keys := cache.Keys(0, 0)
	q := quantize(keys)
	back := q.dequantize()
	for i := 0; i < keys.Rows(); i++ {
		for j := 0; j < keys.Cols(); j++ {
			orig, got := keys.Row(i)[j], back.Row(i)[j]
			// Max error is one quantization step: scale = maxAbs/127.
			if diff := orig - got; diff > 0.2 || diff < -0.2 {
				t.Fatalf("row %d dim %d: %v -> %v", i, j, orig, got)
			}
		}
	}
}

func TestQuantizeZeroVector(t *testing.T) {
	zero := quantize(vecMatrixOfZeros(3, 4))
	back := zero.dequantize()
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if back.Row(i)[j] != 0 {
				t.Fatal("zero vector did not survive quantization")
			}
		}
	}
}

func vecMatrixOfZeros(rows, cols int) *vec.Matrix {
	return vec.NewMatrix(rows, cols)
}
