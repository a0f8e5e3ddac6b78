package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/attention"
	"repro/internal/core"
	"repro/internal/devmem"
	"repro/internal/index/graph"
	"repro/internal/model"
)

// tierServer builds a server whose DB spills evictions: the resident store
// fits roughly `budgetContexts` documents of `tokens` tokens.
func tierServer(t *testing.T, tokens, budgetContexts int) (*httptest.Server, *model.Model) {
	return tierServerQuant(t, tokens, budgetContexts, false)
}

// tierServerQuant is tierServer with the SQ8 key plane toggled.
func tierServerQuant(t *testing.T, tokens, budgetContexts int, quant bool) (*httptest.Server, *model.Model) {
	t.Helper()
	cfg := model.Default()
	cfg.Layers = 2
	cfg.QHeads = 4
	cfg.KVHeads = 2
	cfg.Vocab = 32
	m := model.New(cfg)
	var budget int64
	if budgetContexts > 0 {
		perCtx := int64(tokens) * int64(cfg.Layers) * int64(cfg.KVHeads) * int64(cfg.HeadDim) * 4 * 2
		budget = (perCtx + perCtx/4) * int64(budgetContexts)
	}
	db, err := core.New(core.Config{
		Model:         m,
		Window:        attention.Window{Sinks: 4, Recent: 16},
		LongThreshold: 256,
		Graph:         graph.Config{Degree: 12, QueryKNN: 8, EfConstruction: 48},
		ContextBudget: budget,
		SpillDir:      t.TempDir(),
		QuantKeys:     quant,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		db.Close()
	})
	return ts, m
}

// driveStoreAndClose runs one document through the protocol: create,
// prefill, store, close.
func driveStoreAndClose(t *testing.T, url string, doc DocumentWire) {
	t.Helper()
	var created CreateSessionResponse
	if code := postJSON(t, url+"/v1/sessions", doc, &created); code != http.StatusOK {
		t.Fatalf("create: status %d", code)
	}
	base := url + "/v1/sessions/" + itoa(created.SessionID)
	if code := postJSON(t, base+"/prefill", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("prefill: status %d", code)
	}
	if code := postJSON(t, base+"/store", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("store: status %d", code)
	}
	deleteSession(t, base)
}

func deleteSession(t *testing.T, base string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

func itoa(id int64) string {
	var buf [20]byte
	i := len(buf)
	n := id
	for {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return string(buf[i:])
}

// attnAll queries every head of every layer in one step, returning the raw
// response: attend-only when tok is nil, otherwise ingesting tok first
// (doc must then already end with it).
func attnAll(t *testing.T, base string, m *model.Model, doc *model.Document, focus int, tok *model.Token) StepResponse {
	t.Helper()
	mc := m.Config()
	req := StepRequest{Queries: make([][][]float32, mc.Layers), AttendOnly: tok == nil}
	if tok != nil {
		req.Token = *tok
	}
	for l := range req.Queries {
		req.Queries[l] = make([][]float32, mc.QHeads)
		for h := range req.Queries[l] {
			req.Queries[l][h] = m.QueryVector(doc, l, h, model.QuerySpec{
				FocusTopics: []int{focus}, ContextLen: doc.Len()})
		}
	}
	var out StepResponse
	if code := postJSON(t, base+"/step", req, &out); code != http.StatusOK {
		t.Fatalf("step (attend_only %v): status %d", req.AttendOnly, code)
	}
	return out
}

// TestServeEvictSpillReloadBitwiseIdentical is the tier's end-to-end
// guarantee over the wire: generate on a document, let budget pressure
// evict its stored context to disk, open a new session on the same
// document — served by a transparent reload — and assert every attention
// output is bitwise identical to a server that never evicted.
func TestServeEvictSpillReloadBitwiseIdentical(t *testing.T) {
	testEvictSpillReloadBitwise(t, false)
}

// TestServeEvictSpillReloadBitwiseIdenticalQuant is the same guarantee
// under the SQ8 key plane: spilled keys travel as packed codes + scales,
// and the reloaded plane reproduces every attention output bit for bit
// against a quant server that never evicted (both score the same snapped
// plane; the codes round-trip exactly).
func TestServeEvictSpillReloadBitwiseIdenticalQuant(t *testing.T) {
	testEvictSpillReloadBitwise(t, true)
}

func testEvictSpillReloadBitwise(t *testing.T, quant bool) {
	const tokens = 400
	docA := model.NewFiller(500, tokens, 16, 32)
	docA.Plant(200, 9, 3, 1)
	docB := model.NewFiller(501, tokens, 16, 32)
	wireA := DocumentWire{Seed: docA.Seed, Tokens: docA.Tokens}
	wireB := DocumentWire{Seed: docB.Seed, Tokens: docB.Tokens}

	// Tiered server: budget fits one stored context, so storing B evicts
	// A's context to the spill directory.
	tiered, m := tierServerQuant(t, tokens, 1, quant)
	driveStoreAndClose(t, tiered.URL, wireA)
	driveStoreAndClose(t, tiered.URL, wireB)

	var stats StatsResponse
	resp, err := http.Get(tiered.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !stats.SpillEnabled || stats.SpilledContexts != 1 || stats.Spills < 1 {
		t.Fatalf("expected one spilled context, stats: %+v", stats)
	}

	// New session on docA: the catalog must serve the full prefix.
	var created CreateSessionResponse
	if code := postJSON(t, tiered.URL+"/v1/sessions", wireA, &created); code != http.StatusOK {
		t.Fatalf("create after spill: status %d", code)
	}
	if created.Reused != tokens {
		t.Fatalf("reused = %d, want %d (transparent reload)", created.Reused, tokens)
	}
	tieredBase := tiered.URL + "/v1/sessions/" + itoa(created.SessionID)
	gotDecode := attnAll(t, tieredBase, m, docA, 9, nil)
	// Step a generated token: decode over a reloaded base.
	tok := model.Token{Topic: 9, Payload: 5}
	docA2 := &model.Document{Seed: docA.Seed, Tokens: append(append([]model.Token(nil), docA.Tokens...), tok)}
	gotDecode2 := attnAll(t, tieredBase, m, docA2, 9, &tok)

	// Reference server: unlimited budget, nothing ever evicted.
	ref, _ := tierServerQuant(t, tokens, 0, quant)
	driveStoreAndClose(t, ref.URL, wireA)
	driveStoreAndClose(t, ref.URL, wireB)
	if code := postJSON(t, ref.URL+"/v1/sessions", wireA, &created); code != http.StatusOK {
		t.Fatalf("reference create: status %d", code)
	}
	if created.Reused != tokens {
		t.Fatalf("reference reused = %d", created.Reused)
	}
	refBase := ref.URL + "/v1/sessions/" + itoa(created.SessionID)
	wantDecode := attnAll(t, refBase, m, docA, 9, nil)
	wantDecode2 := attnAll(t, refBase, m, docA2, 9, &tok)

	compareAttention(t, "pre-decode", gotDecode, wantDecode)
	compareAttention(t, "post-decode", gotDecode2, wantDecode2)

	// The reload was counted.
	resp, err = http.Get(tiered.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.ReloadHits != 1 {
		t.Errorf("reload hits = %d, want 1", stats.ReloadHits)
	}
}

func compareAttention(t *testing.T, phase string, got, want StepResponse) {
	t.Helper()
	if got.ContextLen != want.ContextLen {
		t.Fatalf("%s: context len %d vs %d", phase, got.ContextLen, want.ContextLen)
	}
	for l := range want.Layers {
		for h := range want.Layers[l] {
			g, w := got.Layers[l][h], want.Layers[l][h]
			if g.Plan != w.Plan || g.Retrieved != w.Retrieved || g.Attended != w.Attended {
				t.Fatalf("%s: layer %d head %d execution diverges: %+v vs %+v", phase, l, h, g, w)
			}
			if len(g.Output) != len(w.Output) {
				t.Fatalf("%s: layer %d head %d output dims differ", phase, l, h)
			}
			for i := range w.Output {
				if g.Output[i] != w.Output[i] {
					t.Fatalf("%s: layer %d head %d dim %d: %v != %v (spill round trip not bitwise identical)",
						phase, l, h, i, g.Output[i], w.Output[i])
				}
			}
		}
	}
}

// TestServeQuantStats drives a quant server and checks /v1/stats exposes
// the SQ8 observability fields: the key/value byte split with the quant
// plane at about a quarter of the fp32 keys, and the rerank-volume
// counters moving with traffic.
func TestServeQuantStats(t *testing.T) {
	const tokens = 400
	doc := model.NewFiller(600, tokens, 16, 32)
	doc.Plant(200, 9, 3, 1)
	wire := DocumentWire{Seed: doc.Seed, Tokens: doc.Tokens}

	// A device too small for the coarse block cache forces DIPR plans — the
	// path the quant counters measure.
	cfg := model.Default()
	cfg.Layers = 2
	cfg.QHeads = 4
	cfg.KVHeads = 2
	cfg.Vocab = 32
	m := model.New(cfg)
	win := attention.Window{Sinks: 4, Recent: 16}
	winBytes := int64(win.Sinks+win.Recent) * int64(cfg.Layers) * int64(cfg.KVHeads) * int64(cfg.HeadDim) * 4 * 2
	db, err := core.New(core.Config{
		Model:         m,
		Device:        devmem.New(m.WeightsBytes() + 2*winBytes + 4096),
		Window:        win,
		LongThreshold: 256,
		Graph:         graph.Config{Degree: 12, QueryKNN: 8, EfConstruction: 48},
		QuantKeys:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		db.Close()
	})
	driveStoreAndClose(t, ts.URL, wire)

	var created CreateSessionResponse
	if code := postJSON(t, ts.URL+"/v1/sessions", wire, &created); code != http.StatusOK {
		t.Fatalf("create: status %d", code)
	}
	if created.Reused != tokens {
		t.Fatalf("reused = %d", created.Reused)
	}
	attnAll(t, ts.URL+"/v1/sessions/"+itoa(created.SessionID), m, doc, 9, nil)

	var stats StatsResponse
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !stats.QuantEnabled {
		t.Fatal("quant_enabled not reported")
	}
	if stats.KeyBytes == 0 || stats.ValueBytes == 0 || stats.KeyQuantBytes == 0 {
		t.Fatalf("byte split missing: %+v", stats)
	}
	if 3*stats.KeyQuantBytes >= stats.KeyBytes {
		t.Fatalf("quant plane %d not under a third of fp32 keys %d", stats.KeyQuantBytes, stats.KeyBytes)
	}
	if stats.QuantSearches == 0 {
		t.Fatalf("no quant searches recorded: %+v", stats)
	}
	if stats.RerankedRows == 0 || stats.RerankPerSrch <= 0 {
		t.Fatalf("rerank volume not recorded: %+v", stats)
	}
	if stats.FP32Searches != 0 {
		t.Fatalf("fp32 searches on a quant server: %+v", stats)
	}
}
