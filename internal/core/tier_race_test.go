package core

import (
	"sync"
	"testing"

	"repro/internal/attention"
	"repro/internal/devmem"
	"repro/internal/index/graph"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/query"
)

// TestConcurrentReloadSingleFlight hammers the reload path: many sessions
// ask for the same spilled context at once. Exactly one disk load may
// happen (the catalog entry is consumed once), every session must see the
// full reused prefix, and — run under -race — the catalog, single-flight
// and registration locking must stay clean.
func TestConcurrentReloadSingleFlight(t *testing.T) {
	dir := t.TempDir()
	db := tierDB(t, 300, 1, dir, 0)
	doc := model.NewFiller(130, 300, 16, 32)
	if _, err := db.ImportDoc(doc); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ImportDoc(model.NewFiller(131, 300, 16, 32)); err != nil {
		t.Fatal(err) // evicts doc to the spill tier
	}
	if db.TierStats().SpilledContexts != 1 {
		t.Fatal("fixture: context not spilled")
	}

	const goroutines = 16
	var wg sync.WaitGroup
	reused := make([]int, goroutines)
	bases := make([]*Context, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess, n := db.CreateSession(doc)
			reused[g] = n
			bases[g] = sess.base
			sess.Close()
		}(g)
	}
	wg.Wait()

	for g := 0; g < goroutines; g++ {
		if reused[g] != 300 {
			t.Fatalf("goroutine %d reused %d, want 300", g, reused[g])
		}
	}
	// All sessions share the one reloaded context: single-flight collapsed
	// the concurrent loads.
	for g := 1; g < goroutines; g++ {
		if bases[g] != bases[0] {
			t.Fatal("concurrent reloads produced distinct contexts")
		}
	}
	ts := db.TierStats()
	if ts.Counters.ReloadHits != 1 {
		t.Fatalf("reload hits = %d, want 1 (single flight)", ts.Counters.ReloadHits)
	}
}

// TestConcurrentReloadAndImportChurn races reloads of a spilled context
// against imports that keep evicting: the catalog, the resident store and
// the spill directory churn concurrently. Run under -race in CI.
func TestConcurrentReloadAndImportChurn(t *testing.T) {
	db := tierDB(t, 300, 1, t.TempDir(), 0)
	doc := model.NewFiller(140, 300, 16, 32)
	if _, err := db.ImportDoc(doc); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if w%2 == 0 {
					// Churn: import fresh contexts, forcing evictions/spills.
					if _, err := db.ImportDoc(model.NewFiller(uint64(150+w*10+i), 200, 16, 32)); err != nil {
						t.Error(err)
					}
				} else {
					// Reload pressure on the shared document.
					sess, _ := db.CreateSession(doc)
					sess.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	// The document must still be reachable from one of the two tiers.
	sess, reused := db.CreateSession(doc)
	defer sess.Close()
	if reused != 300 {
		t.Fatalf("after churn, reused = %d, want 300", reused)
	}
}

// TestDecodeZeroAllocWithTieringEnabled keeps the PR 2 allocation guarantee
// with the spill tier active: a decode step over a context that was
// evicted, spilled and reloaded must still allocate nothing once warm.
func TestDecodeZeroAllocWithTieringEnabled(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool reuse; allocation counts are not meaningful")
	}
	mdl := testModel()
	mc0 := mdl.Config()
	win := attention.Window{Sinks: 4, Recent: 16}
	winBytes := int64(win.Sinks+win.Recent) * int64(mc0.Layers) * int64(mc0.KVHeads) * int64(mc0.HeadDim) * 4 * 2
	perCtx := int64(1024) * int64(mc0.Layers) * int64(mc0.KVHeads) * int64(mc0.HeadDim) * 4 * 2
	db, err := New(Config{
		Model: mdl,
		// Room for the weights and two session windows.
		Device:        devmem.New(mdl.WeightsBytes() + 2*winBytes + 4096),
		Window:        win,
		LongThreshold: 256,
		Graph:         graph.Config{Degree: 12, QueryKNN: 8, EfConstruction: 48},
		Pool:          pool.Serial(),
		ContextBudget: perCtx + perCtx/4,
		SpillDir:      t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	doc := model.NewFiller(160, 1024, 16, 32)
	doc.Plant(512, 3, 7, 1)
	if _, err := db.ImportDoc(doc); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ImportDoc(model.NewFiller(161, 900, 16, 32)); err != nil {
		t.Fatal(err) // evict + spill doc
	}
	sess, reused := db.CreateSession(doc)
	defer sess.Close()
	if reused != 1024 || !sess.BaseFromSpill() {
		t.Fatalf("fixture: reused=%d fromSpill=%v; want a reloaded base", reused, sess.BaseFromSpill())
	}

	mc := db.Model().Config()
	m := db.Model()
	qs := make([][]float32, mc.QHeads)
	for h := range qs {
		qs[h] = m.QueryVector(doc, 1, h, model.QuerySpec{FocusTopics: []int{3}, ContextLen: doc.Len()})
	}
	out := make([]AttentionResult, mc.QHeads)
	step := func() { sess.AttentionAllInto(1, qs, out) }
	step() // warm arenas
	for h := range out {
		if out[h].Plan.Query != query.KindDIPR {
			t.Fatalf("head %d planned %v; fixture must exercise the DIPR path", h, out[h].Plan)
		}
	}
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Fatalf("decode over a reloaded context allocated %.1f times per run, want 0", allocs)
	}
}
