// Financial document analysis (§8 use case): a batch of long reports is
// imported, summarization-style questions run against each, and the
// contexts are persisted to disk through the vector file system so a later
// service restart reloads them without recomputing KV or rebuilding
// indexes. It exits non-zero when a decoded answer differs from the
// payload planted in its report.
//
//	go run ./examples/finance
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/attention"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

func main() {
	if wrong := run(); wrong > 0 {
		log.Fatalf("%d decoded answers differ from their planted payloads", wrong)
	}
}

// run imports, queries, persists and reloads the reports, and returns the
// number of wrong answers.
func run() (wrong int) {
	cfg := model.Default()
	cfg.Layers = 4
	m := model.New(cfg)

	db, err := core.New(core.Config{
		Model:         m,
		Window:        attention.Window{Sinks: 32, Recent: 64},
		LongThreshold: 1024,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	dir, err := os.MkdirTemp("", "alaya-finance-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Three "annual reports" with summarization-profile critical sets
	// (many weakly-salient facts spread through the document).
	sum, _ := workload.ProfileByName("En.Sum")
	reports := make([]workload.Instance, 3)
	for i := range reports {
		reports[i] = workload.Generate(sum, uint64(100+i), 6144, 64, cfg.Vocab)
		ctx, err := db.ImportDoc(reports[i].Doc)
		if err != nil {
			log.Fatal(err)
		}
		ctxDir := filepath.Join(dir, fmt.Sprintf("report-%d", i))
		if err := db.SaveContext(ctx, ctxDir); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("report %d: %d tokens imported, indexed, persisted to %s\n",
			i, ctx.Len(), ctxDir)
	}

	// Analyse each report.
	fmt.Println("\nsummarization queries:")
	for i, inst := range reports {
		sess, _ := db.CreateSession(inst.Doc)
		start := time.Now()
		var outputs []model.HeadOutput
		for _, hr := range m.RetrievalHeads() {
			q := m.QueryVector(inst.Doc, hr.Layer, hr.QHead, model.QuerySpec{
				FocusTopics: inst.Question, ContextLen: inst.Doc.Len()})
			res := sess.Attention(hr.Layer, hr.QHead, q)
			outputs = append(outputs, model.HeadOutput{Layer: hr.Layer, QHead: hr.QHead, Output: res.Output})
		}
		answer := m.DecodeAnswer(outputs)
		if answer != inst.Answer {
			wrong++
		}
		st := sess.Stats()
		fmt.Printf("  report %d: key finding payload %d (want %d), %d tokens retrieved, %v\n",
			i, answer, inst.Answer, st.Retrieved, time.Since(start).Round(time.Microsecond))
		sess.Close()
	}

	// Simulate a service restart: a fresh DB reloads persisted contexts.
	fmt.Println("\nrestarting service: loading persisted contexts...")
	db2, err := core.New(core.Config{
		Model:         m,
		Window:        attention.Window{Sinks: 32, Recent: 64},
		LongThreshold: 1024,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	start := time.Now()
	for i := range reports {
		if _, err := db2.LoadContext(filepath.Join(dir, fmt.Sprintf("report-%d", i))); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("reloaded %d contexts (KV + graph indexes) in %v — no KV recompute, no index rebuild\n",
		db2.NumContexts(), time.Since(start).Round(time.Millisecond))

	// Prove the reloaded contexts still serve queries.
	inst := reports[1]
	sess, reused := db2.CreateSession(inst.Doc)
	defer sess.Close()
	var outputs []model.HeadOutput
	for _, hr := range m.RetrievalHeads() {
		q := m.QueryVector(inst.Doc, hr.Layer, hr.QHead, model.QuerySpec{
			FocusTopics: inst.Question, ContextLen: inst.Doc.Len()})
		res := sess.Attention(hr.Layer, hr.QHead, q)
		outputs = append(outputs, model.HeadOutput{Layer: hr.Layer, QHead: hr.QHead, Output: res.Output})
	}
	answer := m.DecodeAnswer(outputs)
	if answer != inst.Answer {
		wrong++
	}
	fmt.Printf("after restart: report 1 reused %d tokens, answer %d (want %d)\n",
		reused, answer, inst.Answer)
	return wrong
}
