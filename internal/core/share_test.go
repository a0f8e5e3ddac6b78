package core

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/attention"
	"repro/internal/index/graph"
	"repro/internal/model"
)

// diverge builds a document sharing base's first n tokens and then
// diverging for extra tokens drawn from a topic range disjoint with the
// filler's.
func diverge(base *model.Document, n, extra, topicOff int) *model.Document {
	doc := &model.Document{Seed: base.Seed, Tokens: append([]model.Token(nil), base.Tokens[:n]...)}
	for i := 0; i < extra; i++ {
		doc.Append(model.Token{Topic: topicOff + i%7, Payload: i})
	}
	return doc
}

func TestCoWStoreSharesPrefix(t *testing.T) {
	db := testDB(t, nil)
	baseDoc := model.NewFiller(60, 500, 8, 32)
	baseCtx, err := db.ImportDoc(baseDoc)
	if err != nil {
		t.Fatal(err)
	}

	doc := diverge(baseDoc, 400, 50, 100)
	sess, reused := db.CreateSession(doc)
	if reused != 400 {
		t.Fatalf("reused = %d, want 400", reused)
	}
	sess.PrefillRemaining()
	cow, err := db.Store(sess)
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()

	if cow.Base() != baseCtx || cow.BaseLen() != 400 {
		t.Fatalf("cow base = %p/%d, want %p/400", cow.Base(), cow.BaseLen(), baseCtx)
	}
	if cow.Len() != 450 || cow.Cache().SeqLen(0) != 50 {
		t.Fatalf("cow owns %d of %d rows, want 50 of 450", cow.Cache().SeqLen(0), cow.Len())
	}
	if cow.graphs != nil {
		t.Error("cow context built its own graphs; retrieval must go through the root's")
	}
	if cow.Bytes() >= baseCtx.Bytes()/2 {
		t.Errorf("cow bytes %d not small against base %d", cow.Bytes(), baseCtx.Bytes())
	}
	if got := db.StoredBytes(); got != baseCtx.Bytes()+cow.Bytes() {
		t.Errorf("stored bytes %d, want base+tail %d", got, baseCtx.Bytes()+cow.Bytes())
	}

	st := db.SharingStats()
	if st.SharedContexts != 1 || st.SharedPrefixBytes != baseCtx.Bytes() {
		t.Errorf("sharing stats: %d shared, %d bytes; want 1 shared, %d bytes",
			st.SharedContexts, st.SharedPrefixBytes, baseCtx.Bytes())
	}
	if st.PinnedContexts != 1 {
		// With the session closed only the resident cow pins its base.
		t.Errorf("pinned contexts = %d, want 1 (base pinned by cow)", st.PinnedContexts)
	}
	if db.NumContexts() != 2 {
		t.Errorf("contexts = %d, want 2 (base and cow)", db.NumContexts())
	}
	if st.Counters.CoWStores != 1 || st.Counters.PrefixLookups == 0 || st.Counters.PrefixHits == 0 {
		t.Errorf("share counters: %+v", st.Counters)
	}

	// Storing a session that never diverged from its base hands back the
	// base itself instead of minting an empty-tail context.
	again, reused := db.CreateSession(baseDoc)
	if reused != 500 {
		t.Fatalf("full reuse = %d", reused)
	}
	again.PrefillRemaining()
	same, err := db.Store(again)
	if err != nil {
		t.Fatal(err)
	}
	again.Close()
	if same != baseCtx {
		t.Errorf("undiverged store minted a new context")
	}
	if db.NumContexts() != 2 {
		t.Errorf("contexts = %d, want 2", db.NumContexts())
	}
}

// TestCoWAttentionBitwiseIdentity pins the sharing contract: a session over
// a copy-on-write context (shared path — prefix rows and indexes reached
// through the base chain, tail rows chained as segments) computes exactly
// what the storing session computes continuing in place (unshared path —
// its own contiguous tail). Bitwise, not approximately: same plans, same
// retrieved sets, same float bits, at chain depth one and two.
func TestCoWAttentionBitwiseIdentity(t *testing.T) {
	db := testDB(t, nil)
	mdl := db.Model()
	mc := mdl.Config()
	baseDoc := model.NewFiller(61, 600, 8, 32)
	if _, err := db.ImportDoc(baseDoc); err != nil {
		t.Fatal(err)
	}

	compare := func(t *testing.T, sA, sB *Session, doc *model.Document) {
		t.Helper()
		for l := 0; l < mc.Layers; l++ {
			for _, h := range []int{0, mc.QHeads - 1} {
				for _, topic := range []int{2, 100} {
					q := mdl.QueryVector(doc, l, h, model.QuerySpec{FocusTopics: []int{topic}, ContextLen: doc.Len()})
					a, b := sA.Attention(l, h, q), sB.Attention(l, h, q)
					if a.Plan != b.Plan || a.Attended != b.Attended || a.Retrieved != b.Retrieved {
						t.Fatalf("layer %d head %d topic %d: execution diverges: %+v/%d/%d vs %+v/%d/%d",
							l, h, topic, a.Plan, a.Attended, a.Retrieved, b.Plan, b.Attended, b.Retrieved)
					}
					for i := range a.RetrievedIDs {
						if a.RetrievedIDs[i] != b.RetrievedIDs[i] {
							t.Fatalf("layer %d head %d topic %d: retrieved ids diverge", l, h, topic)
						}
					}
					for i := range a.Output {
						if math.Float32bits(a.Output[i]) != math.Float32bits(b.Output[i]) {
							t.Fatalf("layer %d head %d topic %d dim %d: %v != %v (shared path not bitwise identical)",
								l, h, topic, i, a.Output[i], b.Output[i])
						}
					}
				}
			}
		}
	}

	// Depth 1: diverge from the imported root.
	docA := diverge(baseDoc, 400, 201, 100)
	sA, reused := db.CreateSession(docA)
	if reused != 400 {
		t.Fatalf("reused = %d, want 400", reused)
	}
	sA.PrefillRemaining()
	cow, err := db.Store(sA)
	if err != nil {
		t.Fatal(err)
	}
	sB, reusedB := db.CreateSession(cow.Doc())
	if reusedB != docA.Len() {
		t.Fatalf("reuse of cow context = %d, want %d", reusedB, docA.Len())
	}
	if sB.base != cow {
		t.Fatalf("session attached at %p, want the cow context %p", sB.base, cow)
	}
	compare(t, sA, sB, docA)
	sA.Close()

	// Depth 2: diverge inside cow's tail, so the new session's reused
	// prefix spans root rows, a mid segment from cow, and its own tail.
	docC := diverge(cow.Doc(), 450, 100, 200)
	sC, reusedC := db.CreateSession(docC)
	if reusedC != 450 {
		t.Fatalf("depth-2 reused = %d, want 450", reusedC)
	}
	sC.PrefillRemaining()
	cow2, err := db.Store(sC)
	if err != nil {
		t.Fatal(err)
	}
	if cow2.Base() != cow || cow2.BaseLen() != 450 {
		t.Fatalf("depth-2 chain: base %p len %d, want %p/450", cow2.Base(), cow2.BaseLen(), cow)
	}
	sD, reusedD := db.CreateSession(cow2.Doc())
	if reusedD != docC.Len() {
		t.Fatalf("depth-2 reuse = %d, want %d", reusedD, docC.Len())
	}
	if len(sD.mids) != 2 {
		t.Fatalf("depth-2 session has %d mid segments, want 2 (cow tail slice + cow2 tail)", len(sD.mids))
	}
	compare(t, sC, sD, docC)
	sC.Close()
	sB.Close()
	sD.Close()
}

// TestPinnedBaseNeverEvicted hammers CreateSession/attention/Store against
// concurrent budget-driven eviction: a base pinned by a live session or a
// resident derived context must never leave the resident store. Run under
// -race.
func TestPinnedBaseNeverEvicted(t *testing.T) {
	db := budgetDB(t, 300, 2)
	baseDoc := model.NewFiller(62, 300, 8, 32)
	if _, err := db.ImportDoc(baseDoc); err != nil {
		t.Fatal(err)
	}
	mdl := db.Model()

	const workers, iters = 3, 6
	var wg sync.WaitGroup
	errc := make(chan error, workers*iters+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				doc := diverge(baseDoc, 260, 20, 100+10*(w*iters+it))
				sess, reused := db.CreateSession(doc)
				sess.PrefillRemaining()
				if sess.base != nil {
					// The pin invariant: every chain link of a live session
					// stays resident with a positive refcount.
					db.mu.RLock()
					for c := sess.base; c != nil; c = c.base {
						if !c.resident || c.refs <= 0 {
							db.mu.RUnlock()
							errc <- &pinViolation{hash: c.hash, resident: c.resident, refs: c.refs}
							sess.Close()
							return
						}
					}
					db.mu.RUnlock()
					q := mdl.QueryVector(doc, 1, 0, model.QuerySpec{FocusTopics: []int{2}, ContextLen: reused})
					res := sess.Attention(1, 0, q)
					for _, v := range res.Output {
						if math.IsNaN(float64(v)) {
							errc <- &pinViolation{hash: 0}
							sess.Close()
							return
						}
					}
				}
				if it%3 == 0 {
					if _, err := db.Store(sess); err != nil {
						errc <- err
						sess.Close()
						return
					}
				}
				sess.Close()
			}
		}(w)
	}
	// Churn: filler imports keep the budget under pressure so eviction runs
	// constantly against the pinned chains.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if _, err := db.ImportDoc(model.NewFiller(uint64(900+i), 300, 8, 32)); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Quiescent consistency: with every session closed, each context's
	// refcount equals the number of resident descendants chaining through
	// it — no leaked or lost pins.
	db.mu.RLock()
	defer db.mu.RUnlock()
	want := make(map[*Context]int32)
	for _, ctx := range db.contexts {
		for c := ctx.base; c != nil; c = c.base {
			want[c]++
		}
	}
	for _, ctx := range db.contexts {
		if ctx.refs != want[ctx] {
			t.Errorf("context %016x refs = %d, want %d", ctx.hash, ctx.refs, want[ctx])
		}
		for c := ctx.base; c != nil; c = c.base {
			if !c.resident {
				t.Errorf("resident context %016x chains through evicted base %016x", ctx.hash, c.hash)
			}
		}
	}
}

type pinViolation struct {
	hash     uint64
	resident bool
	refs     int32
}

func (v *pinViolation) Error() string {
	if v.hash == 0 {
		return "attention over pinned chain produced NaN"
	}
	return "pinned base dropped out from under a live session"
}

// TestCoWSpillRoundTripQuant spills a copy-on-write chain under QuantKeys
// and brings it back: the shared prefix is written to disk exactly once
// (counted once in TierStats), the derived context's directory holds only
// its fp32 tail, and a fresh session over the derived document reloads the
// whole chain through the spill tier with full reuse.
func TestCoWSpillRoundTripQuant(t *testing.T) {
	dir := t.TempDir()
	mdl := testModel()
	mc := mdl.Config()
	// Budget fits the base chain (base + tiny cow tail) but not a second
	// full context: the filler import below must evict.
	perCtx := int64(300) * int64(mc.Layers) * int64(mc.KVHeads) * int64(mc.HeadDim) * 4 * 2
	db, err := New(Config{
		Model:         mdl,
		Window:        attention.Window{Sinks: 4, Recent: 16},
		LongThreshold: 256,
		Graph:         graph.Config{Degree: 12, QueryKNN: 8, EfConstruction: 48},
		ContextBudget: perCtx * 2,
		SpillDir:      dir,
		QuantKeys:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	baseDoc := model.NewFiller(63, 300, 16, 32)
	baseCtx, err := db.ImportDoc(baseDoc)
	if err != nil {
		t.Fatal(err)
	}
	doc := diverge(baseDoc, 260, 40, 100)
	sess, reused := db.CreateSession(doc)
	if reused != 260 {
		t.Fatalf("reused = %d, want 260", reused)
	}
	sess.PrefillRemaining()
	cow, err := db.Store(sess)
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
	baseBytes, cowBytes := baseCtx.Bytes(), cow.Bytes()

	// Filler import pushes the store over budget; the cow context is the
	// LRU unpinned victim and spilling it must write its base first.
	if _, err := db.ImportDoc(model.NewFiller(64, 300, 16, 32)); err != nil {
		t.Fatal(err)
	}
	ts := db.TierStats()
	if ts.SpilledContexts != 2 {
		t.Fatalf("spilled contexts = %d, want 2 (cow + its base written once)", ts.SpilledContexts)
	}
	dirBytes := func(hash uint64) int64 {
		sub := spillDirName(dir, hash)
		var n int64
		ents, err := os.ReadDir(sub)
		if err != nil {
			t.Fatalf("spill dir for %016x: %v", hash, err)
		}
		for _, e := range ents {
			if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
				n += info.Size()
			}
		}
		return n
	}
	baseDisk, cowDisk := dirBytes(DocHash(baseDoc)), dirBytes(DocHash(doc))
	if got := baseDisk + cowDisk; got != ts.SpilledDiskBytes {
		t.Errorf("tier accounts %d disk bytes, directories hold %d: shared prefix double counted?",
			ts.SpilledDiskBytes, got)
	}
	if cowDisk >= baseDisk/3 {
		t.Errorf("cow spill %d bytes vs base %d: tail-only spill should be far smaller", cowDisk, baseDisk)
	}
	man, err := os.ReadFile(filepath.Join(spillDirName(dir, DocHash(doc)), "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(man), `"base_hash"`) || !strings.Contains(string(man), `"base_len": 260`) {
		t.Errorf("cow manifest does not record its base link: %s", man)
	}

	// Round trip: a session over the derived document reloads the chain
	// from the tier (the spilled 300-token match beats the resident
	// 260-token base match) and reuses everything.
	sess2, reused2 := db.CreateSession(doc)
	defer sess2.Close()
	if reused2 != doc.Len() {
		t.Fatalf("post-spill reuse = %d, want %d", reused2, doc.Len())
	}
	if !sess2.BaseFromSpill() {
		t.Error("reloaded base not flagged as from spill")
	}
	if sess2.base == nil || sess2.base.Base() == nil {
		t.Fatal("reloaded context lost its base chain")
	}
	if got := sess2.base.Bytes() + sess2.base.Base().Bytes(); got != baseBytes+cowBytes {
		t.Errorf("reloaded chain resident bytes = %d, want %d", got, baseBytes+cowBytes)
	}
	st := db.SharingStats()
	if st.Counters.PrefixSpillHits == 0 {
		t.Errorf("prefix spill hit not counted: %+v", st.Counters)
	}
	q := mdl.QueryVector(doc, 1, 0, model.QuerySpec{FocusTopics: []int{2}, ContextLen: doc.Len()})
	res := sess2.Attention(1, 0, q)
	if res.Attended == 0 {
		t.Error("attention over reloaded chain attended nothing")
	}
	for i, v := range res.Output {
		if math.IsNaN(float64(v)) {
			t.Fatalf("output[%d] is NaN after reload", i)
		}
	}
}
