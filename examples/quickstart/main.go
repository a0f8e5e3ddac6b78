// Quickstart: store a long context in AlayaDB, serve it over the
// attention API, and decode an answer through the Go SDK — the Figure 4(b)
// integration in miniature, but through the real wire: the "engine" below
// talks to the DB only via pkg/alayaclient, one round trip per decoded
// token, exactly as a decoupled deployment would.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http/httptest"

	"repro/internal/attention"
	"repro/internal/core"
	"repro/internal/devmem"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/workload"
	"repro/pkg/alayaclient"
)

func main() {
	// The model substrate: a scaled-down Llama-3-8B shape.
	cfg := model.Default()
	cfg.Layers = 4
	m := model.New(cfg)

	// A device that fits the model weights with little to spare: the query
	// optimizer (Figure 8) will route long-context queries to the
	// memory-frugal DIPR plans instead of caching blocks on device.
	dev := devmem.New(m.WeightsBytes() + 8<<20)
	db, err := core.New(core.Config{
		Model:         m,
		Device:        dev,
		Window:        attention.Window{Sinks: 32, Recent: 32},
		LongThreshold: 1024,
		// SQ8 key plane: retrieval and host attention stream int8 keys (4x
		// less traffic) and rerank candidates in fp32, so the retrieved
		// token set matches an fp32 configuration.
		QuantKeys: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// A 4K-token "document" with one needle fact planted mid-context.
	task, _ := workload.ProfileByName("Retr.P")
	inst := workload.Generate(task, 42, 4096, 64, cfg.Vocab)
	fmt.Printf("document: %d tokens; the answer (payload %d) is at position %d\n",
		inst.Doc.Len(), inst.Answer, inst.Critical[0])

	// Import: prompts + KV cache become a reusable stored context, and its
	// vector indexes are built (DB.import in the paper's Table 2).
	if _, err := db.ImportDoc(inst.Doc); err != nil {
		log.Fatal(err)
	}

	// Serve it. In production this is `alayad`; here the daemon runs
	// in-process and the SDK connects over real HTTP.
	srv := serve.NewServer(db)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	cli, err := alayaclient.NewClient(alayaclient.WithBaseURL(ts.URL))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// A new request over the same prompts reuses everything: no prefill.
	sess, err := cli.CreateSession(ctx, inst.Doc)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.CloseSession(ctx)
	fmt.Printf("session reuses %d tokens (no prefill needed)\n", sess.Reused)

	// One decode step, ONE round trip: ship the generated token plus every
	// (layer, head) query; get every attention output back. On the wire it
	// is an application/x-alaya-frame binary frame, not per-float JSON.
	queries := make([][][]float32, cfg.Layers)
	for l := range queries {
		queries[l] = make([][]float32, cfg.QHeads)
		for h := range queries[l] {
			queries[l][h] = m.QueryVector(inst.Doc, l, h, model.QuerySpec{
				FocusTopics: inst.Question, ContextLen: inst.Doc.Len()})
		}
	}
	// The ingested token is the engine's previously generated one (here: a
	// neutral continuation token, so the planted needle stays the signal).
	step, err := sess.Step(ctx, inst.Doc.Tokens[inst.Doc.Len()-1], queries)
	if err != nil {
		log.Fatal(err)
	}

	// Decode the answer from the retrieval heads' outputs.
	var outputs []model.HeadOutput
	for _, hr := range m.RetrievalHeads() {
		outputs = append(outputs, model.HeadOutput{
			Layer: hr.Layer, QHead: hr.QHead,
			Output: step.Layers[hr.Layer][hr.QHead].Output,
		})
	}
	answer := m.DecodeAnswer(outputs)
	fmt.Printf("decoded answer: payload %d (want %d) — %v\n", answer, inst.Answer, answer == inst.Answer)

	// Decode three more tokens through the streaming batch API: the batch
	// goes up in one request and each response comes back the moment its
	// decode wave completes, so a real engine would already be computing
	// the next token's queries while later steps are still in flight.
	var steps []alayaclient.StepRequest
	for i := 0; i < 3; i++ {
		steps = append(steps, alayaclient.StepRequest{
			Token: inst.Doc.Tokens[inst.Doc.Len()-1], Queries: queries})
	}
	stream, err := sess.StepStream(ctx, steps)
	if err != nil {
		log.Fatal(err)
	}
	defer stream.Close()
	for {
		resp, err := stream.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("streamed step: context now %d tokens\n", resp.ContextLen)
	}

	// The stats endpoint shows what the decode traffic cost the serving
	// layer, including the continuous-batching scheduler's wave counters.
	st, err := cli.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("key planes: %d fp32 bytes mirrored by %d SQ8 bytes (scoring traffic /%.1f); %d candidates fp32-reranked\n",
		st.KeyBytes, st.KeyQuantBytes, float64(st.KeyBytes)/float64(max(st.KeyQuantBytes, 1)), st.RerankedRows)
	for _, ep := range st.Endpoints {
		fmt.Printf("endpoint %-14s %d requests, mean %.2f ms\n", ep.Endpoint, ep.Requests, ep.MeanMillis)
	}
}
