package serve

import (
	"context"
	"errors"
	"testing"

	"repro/internal/attention"
	"repro/internal/core"
	"repro/internal/index/graph"
	"repro/internal/model"
	"repro/internal/workload"
)

func testService(t *testing.T) (*Service, *model.Model) {
	t.Helper()
	cfg := model.Default()
	cfg.Layers = 2
	cfg.QHeads = 4
	cfg.KVHeads = 2
	cfg.Vocab = 32
	m := model.New(cfg)
	db, err := core.New(core.Config{
		Model:         m,
		Window:        attention.Window{Sinks: 4, Recent: 16},
		LongThreshold: 256,
		Graph:         graph.Config{Degree: 12, QueryKNN: 8, EfConstruction: 48},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(db)
	t.Cleanup(func() {
		svc.Close()
		db.Close()
	})
	return svc, m
}

func stepQueriesFor(m *model.Model, doc *model.Document, topics []int, step int) [][][]float32 {
	mc := m.Config()
	qs := make([][][]float32, mc.Layers)
	for l := range qs {
		qs[l] = make([][]float32, mc.QHeads)
		for h := range qs[l] {
			qs[l][h] = m.QueryVector(doc, l, h, model.QuerySpec{
				FocusTopics: topics, Step: step, ContextLen: doc.Len()})
		}
	}
	return qs
}

// TestServiceInProcess drives the full engine protocol without any HTTP:
// the Service core is directly callable, which is the point of the
// transport split.
func TestServiceInProcess(t *testing.T) {
	svc, m := testService(t)
	p, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(p, 3, 500, 64, 32)
	doc := &CreateSessionRequest{Seed: inst.Doc.Seed, Tokens: inst.Doc.Tokens}

	created, err := svc.CreateSession(doc)
	if err != nil {
		t.Fatal(err)
	}
	if created.Reused != 0 {
		t.Fatalf("cold create reused %d", created.Reused)
	}
	id := created.SessionID

	pf, err := svc.Prefill(id)
	if err != nil {
		t.Fatal(err)
	}
	if pf.ContextLen != 500 || pf.Prefilled != 500 {
		t.Fatalf("prefill = %+v", pf)
	}

	// One step: token in, every layer and head out.
	qs := stepQueriesFor(m, inst.Doc, inst.Question, 0)
	step, err := svc.Step(id, &StepRequest{Token: model.Token{Topic: 1, Payload: 2}, Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	if step.ContextLen != 501 {
		t.Fatalf("context after step = %d", step.ContextLen)
	}
	if len(step.Layers) != m.Config().Layers || len(step.Layers[0]) != m.Config().QHeads {
		t.Fatalf("step geometry %dx%d", len(step.Layers), len(step.Layers[0]))
	}
	for l := range step.Layers {
		for h := range step.Layers[l] {
			r := step.Layers[l][h]
			if len(r.Output) != m.Config().HeadDim || r.Plan == "" || r.Attended == 0 {
				t.Fatalf("step L%dH%d = %+v", l, h, r)
			}
		}
	}
	step.Release()

	// A streamed batch of two more steps.
	batch := &StepsRequest{Steps: []StepRequest{
		{Token: model.Token{Topic: 1, Payload: 3}, Queries: stepQueriesFor(m, inst.Doc, inst.Question, 1)},
		{Token: model.Token{Topic: 1, Payload: 4}, Queries: stepQueriesFor(m, inst.Doc, inst.Question, 2)},
	}}
	var lens []int
	err = svc.StepStream(context.Background(), id, batch, func(r *StepResponse) error {
		lens = append(lens, r.ContextLen)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lens) != 2 || lens[0] != 502 || lens[1] != 503 {
		t.Fatalf("streamed context lens = %v", lens)
	}

	stored, err := svc.Store(id)
	if err != nil {
		t.Fatal(err)
	}
	if stored.StoredTokens != 503 {
		t.Fatalf("stored_tokens = %d", stored.StoredTokens)
	}

	if _, err := svc.CloseSession(id); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CloseSession(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double close err = %v", err)
	}

	// Stats carry the endpoint counters of everything above.
	st, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Contexts != 1 || st.OpenSessions != 0 {
		t.Fatalf("stats = %+v", st)
	}
	byName := map[string]int64{}
	for _, ep := range st.Endpoints {
		byName[ep.Endpoint] = ep.Requests
	}
	for name, want := range map[string]int64{
		"create_session": 1, "prefill": 1, "step": 1, "step_stream": 1,
		"store": 1, "close_session": 2,
	} {
		if byName[name] != want {
			t.Fatalf("endpoint %s requests = %d, want %d (%+v)", name, byName[name], want, st.Endpoints)
		}
	}
}

// TestServiceErrorModel sweeps the typed error kinds the core returns.
func TestServiceErrorModel(t *testing.T) {
	svc, m := testService(t)
	mc := m.Config()

	if _, err := svc.Prefill(404); !errors.Is(err, ErrNotFound) {
		t.Fatalf("prefill missing session: %v", err)
	}
	geom := make([][][]float32, mc.Layers)
	for l := range geom {
		geom[l] = make([][]float32, mc.QHeads)
		for h := range geom[l] {
			geom[l][h] = make([]float32, mc.HeadDim)
		}
	}
	if _, err := svc.Step(404, &StepRequest{Queries: geom}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("step missing session: %v", err)
	}
	if _, err := svc.Store(404); !errors.Is(err, ErrNotFound) {
		t.Fatalf("store missing session: %v", err)
	}

	created, err := svc.CreateSession(&CreateSessionRequest{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	id := created.SessionID

	if _, err := svc.Step(id, &StepRequest{Queries: nil}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad step geometry: %v", err)
	}
	oneHead := make([][][]float32, mc.Layers)
	for l := range oneHead {
		oneHead[l] = geom[l][:1]
	}
	if _, err := svc.Step(id, &StepRequest{Queries: oneHead}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad head count: %v", err)
	}
	shortDim := [][][]float32{geom[0], append([][]float32{make([]float32, 3)}, geom[1][1:]...)}
	if _, err := svc.Step(id, &StepRequest{Queries: shortDim}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad dim: %v", err)
	}
	badBatch := &StepsRequest{Steps: []StepRequest{{Queries: make([][][]float32, 1)}}}
	if err := svc.StepStream(context.Background(), id, badBatch, func(*StepResponse) error { return nil }); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad batch geometry: %v", err)
	}

	// Conflict: storing a session whose KV was never prefilled.
	doc := model.NewFiller(9, 50, 8, 32)
	c2, _ := svc.CreateSession(&CreateSessionRequest{Seed: doc.Seed, Tokens: doc.Tokens})
	if _, err := svc.Store(c2.SessionID); !errors.Is(err, ErrConflict) {
		t.Fatalf("store unprefilled: %v", err)
	}

	// Kind → status mapping is total.
	for kind, want := range map[Kind]int{
		KindBadRequest: 400, KindNotFound: 404, KindConflict: 409,
		KindMethodNotAllowed: 405, KindTooLarge: 413,
		KindUnsupportedMedia: 415, KindOverloaded: 429,
		KindUnavailable: 503, KindInternal: 500, Kind("mystery"): 500,
	} {
		if got := HTTPStatus(kind); got != want {
			t.Errorf("HTTPStatus(%s) = %d, want %d", kind, got, want)
		}
	}

	// Envelope classification.
	env := Envelope(NotFoundf("nope"))
	if env.Kind != KindNotFound || env.Error != "nope" {
		t.Errorf("envelope = %+v", env)
	}
	env = Envelope(errors.New("plain"))
	if env.Kind != KindInternal {
		t.Errorf("plain error envelope kind = %s", env.Kind)
	}
	if ErrNotFound.Error() != string(KindNotFound) {
		t.Errorf("sentinel message = %q", ErrNotFound.Error())
	}
}
