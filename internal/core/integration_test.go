package core

import (
	"sync"
	"testing"

	"repro/internal/attention"
	"repro/internal/devmem"
	"repro/internal/index/graph"
	"repro/internal/model"
	"repro/internal/workload"
)

// TestMultiStepDecodeAgainstReference runs a short generation loop through
// a session — retrieval, sparse attention, answer decoding, token append —
// and checks every step's decoded answer against a full-attention
// reference decode. This is the end-to-end contract: AlayaDB's sparse
// path must not change what the model generates on retrieval workloads.
func TestMultiStepDecodeAgainstReference(t *testing.T) {
	mdl := testModel()
	dev := devmem.New(24 << 20) // weights fit; coarse block cache does not
	db, err := New(Config{
		Model:         mdl,
		Device:        dev,
		Window:        attention.Window{Sinks: 4, Recent: 16},
		LongThreshold: 256,
		Graph:         graph.Config{Degree: 12, QueryKNN: 8, EfConstruction: 48},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	p, err := workload.ProfileByName("Retr.N")
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.Generate(p, 77, 900, 64, 32)
	if _, err := db.ImportDoc(inst.Doc); err != nil {
		t.Fatal(err)
	}
	sess, reused := db.CreateSession(inst.Doc)
	defer sess.Close()
	if reused != 900 {
		t.Fatalf("reused = %d", reused)
	}

	const steps = 4
	for step := 0; step < steps; step++ {
		n := sess.ContextLen(0)

		// Session decode: sparse attention through the DB.
		var sparse []model.HeadOutput
		// Reference decode: full attention over the session's document.
		refCache := mdl.BuildKV(sess.Doc())
		var full []model.HeadOutput

		for _, hr := range mdl.RetrievalHeads() {
			q := mdl.QueryVector(sess.Doc(), hr.Layer, hr.QHead, model.QuerySpec{
				FocusTopics: inst.Question, Step: step, ContextLen: n})
			res := sess.Attention(hr.Layer, hr.QHead, q)
			sparse = append(sparse, model.HeadOutput{Layer: hr.Layer, QHead: hr.QHead, Output: res.Output})

			kv := mdl.KVGroup(hr.QHead)
			o := attention.Full(q, refCache.Keys(hr.Layer, kv), refCache.Values(hr.Layer, kv))
			full = append(full, model.HeadOutput{Layer: hr.Layer, QHead: hr.QHead, Output: o})
		}
		gotTok := mdl.DecodeAnswer(sparse)
		wantTok := mdl.DecodeAnswer(full)
		if gotTok != wantTok {
			t.Fatalf("step %d: sparse decode produced %d, full attention %d", step, gotTok, wantTok)
		}
		if gotTok != inst.Answer {
			t.Fatalf("step %d: decoded %d, planted answer %d", step, gotTok, inst.Answer)
		}
		// Generation: append the decoded token and continue.
		sess.AppendToken(model.Token{Topic: 7000 + step, Payload: gotTok})
	}
	if sess.ContextLen(0) != 900+steps {
		t.Fatalf("context after generation = %d", sess.ContextLen(0))
	}
}

// TestConcurrentSessionsShareContext: many sessions over one stored
// context answer queries concurrently. The stored context and its graphs
// are shared read-only; device accounting and stats must stay consistent.
func TestConcurrentSessionsShareContext(t *testing.T) {
	db := testDB(t, devmem.New(0))
	doc := model.NewFiller(88, 600, 64, 32)
	doc.Plant(300, 4242, 9, 1)
	if _, err := db.ImportDoc(doc); err != nil {
		t.Fatal(err)
	}
	mdl := db.Model()

	const goroutines = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess, reused := db.CreateSession(doc)
			defer sess.Close()
			if reused != 600 {
				errs <- nil
				return
			}
			for i := 0; i < 5; i++ {
				q := mdl.QueryVector(doc, 1, g%mdl.Config().QHeads, model.QuerySpec{
					FocusTopics: []int{4242}, Step: i, ContextLen: 600})
				res := sess.Attention(1, g%mdl.Config().QHeads, q)
				if len(res.Output) != mdl.Config().HeadDim {
					errs <- nil
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if len(errs) > 0 {
		t.Fatalf("%d goroutines failed", len(errs))
	}
	if got := db.Device().UsedBy(devmem.Window); got != 0 {
		t.Errorf("window memory leaked after close: %d", got)
	}
}
