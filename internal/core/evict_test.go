package core

import (
	"testing"

	"repro/internal/attention"
	"repro/internal/index/graph"
	"repro/internal/model"
)

// budgetDB builds a DB whose context store fits roughly `contexts` stored
// documents of `tokens` tokens each.
func budgetDB(t *testing.T, tokens, contexts int) *DB {
	t.Helper()
	mdl := testModel()
	mc := mdl.Config()
	perCtx := int64(tokens) * int64(mc.Layers) * int64(mc.KVHeads) * int64(mc.HeadDim) * 4 * 2
	perCtx += perCtx / 4 // index headroom
	db, err := New(Config{
		Model:         mdl,
		Window:        attention.Window{Sinks: 4, Recent: 16},
		LongThreshold: 256,
		Graph:         graph.Config{Degree: 12, QueryKNN: 8, EfConstruction: 48},
		ContextBudget: perCtx * int64(contexts),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestContextBudgetEvictsLRU(t *testing.T) {
	db := budgetDB(t, 300, 2)
	docs := make([]*model.Document, 3)
	for i := range docs {
		docs[i] = model.NewFiller(uint64(40+i), 300, 16, 32)
		if _, err := db.ImportDoc(docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Three imports into a two-context budget: the oldest (docs[0]) must be
	// gone.
	if got := db.NumContexts(); got != 2 {
		t.Fatalf("contexts = %d, want 2", got)
	}
	if got := db.Evictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	sess, reused := db.CreateSession(docs[0])
	sess.Close()
	if reused != 0 {
		t.Errorf("evicted context still reused (%d tokens)", reused)
	}
	for _, i := range []int{1, 2} {
		sess, reused := db.CreateSession(docs[i])
		sess.Close()
		if reused != 300 {
			t.Errorf("doc %d: reused = %d, want 300", i, reused)
		}
	}
}

func TestCreateSessionRefreshesRecency(t *testing.T) {
	db := budgetDB(t, 300, 2)
	a := model.NewFiller(50, 300, 16, 32)
	b := model.NewFiller(51, 300, 16, 32)
	c := model.NewFiller(52, 300, 16, 32)
	if _, err := db.ImportDoc(a); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ImportDoc(b); err != nil {
		t.Fatal(err)
	}
	// Touch a: it becomes most recent, so importing c must evict b.
	sess, _ := db.CreateSession(a)
	sess.Close()
	if _, err := db.ImportDoc(c); err != nil {
		t.Fatal(err)
	}
	sessA, reusedA := db.CreateSession(a)
	sessA.Close()
	sessB, reusedB := db.CreateSession(b)
	sessB.Close()
	if reusedA != 300 {
		t.Errorf("recently used context evicted (reusedA = %d)", reusedA)
	}
	if reusedB != 0 {
		t.Errorf("LRU context survived (reusedB = %d)", reusedB)
	}
}

func TestUnlimitedBudgetNeverEvicts(t *testing.T) {
	db := testDB(t, nil) // no budget
	for i := 0; i < 4; i++ {
		if _, err := db.ImportDoc(model.NewFiller(uint64(60+i), 200, 16, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if db.NumContexts() != 4 || db.Evictions() != 0 {
		t.Errorf("contexts = %d evictions = %d", db.NumContexts(), db.Evictions())
	}
	if db.ContextBudget() != 0 {
		t.Errorf("budget = %d", db.ContextBudget())
	}
}

func TestBudgetTooSmallForOneContext(t *testing.T) {
	mdl := testModel()
	db, err := New(Config{
		Model:         mdl,
		ContextBudget: 1, // nothing fits
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.ImportDoc(model.NewFiller(70, 100, 16, 32)); err == nil {
		t.Fatal("import into impossible budget succeeded")
	}
}

func TestStoredBytesAccounting(t *testing.T) {
	db := testDB(t, nil)
	if db.StoredBytes() != 0 {
		t.Fatalf("fresh DB stored bytes = %d", db.StoredBytes())
	}
	ctx, err := db.ImportDoc(model.NewFiller(71, 150, 16, 32))
	if err != nil {
		t.Fatal(err)
	}
	if got := db.StoredBytes(); got != ctx.Bytes() {
		t.Errorf("StoredBytes = %d, ctx.Bytes = %d", got, ctx.Bytes())
	}
	if ctx.Bytes() <= ctx.Cache().Bytes() {
		t.Error("context bytes should include index adjacency")
	}
}
