package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/model"
)

// mutateAt returns doc with the token at position p replaced, diverging
// from every document sharing its prefix there.
func mutateAt(doc *model.Document, p int) *model.Document {
	out := &model.Document{Seed: doc.Seed, Tokens: append([]model.Token(nil), doc.Tokens...)}
	out.Tokens[p].Payload += 1000
	return out
}

// TestCreateSessionLongestPrefix holds every CreateSession reuse count to
// the longest commonPrefix over the documents the DB stores, resident or
// spilled, taken from the test's own list of them. The documents form a
// family around one base — truncations, extensions, and single-token
// divergences on both sides of a 64-token boundary — plus a second seed;
// a store/evict/reload churn then derives sessions from stored documents
// and stores them back, copy-on-write chains included. The store holds
// about four documents, so most lookups have to find their match in the
// spill catalog.
func TestCreateSessionLongestPrefix(t *testing.T) {
	db := tierDB(t, 200, 4, t.TempDir(), 0)
	base := model.NewFiller(5, 200, 16, 32)
	var stored []*model.Document
	var fromSpill, fromResident int
	create := func(what string, q *model.Document) *Session {
		t.Helper()
		want := 0
		for _, d := range stored {
			if n := commonPrefix(d, q); n > want {
				want = n
			}
		}
		sess, got := db.CreateSession(q)
		if got != want {
			t.Fatalf("%s: reused %d tokens, the longest stored prefix is %d", what, got, want)
		}
		switch {
		case sess.BaseFromSpill():
			fromSpill++
		case got > 0:
			fromResident++
		}
		return sess
	}
	imp := func(d *model.Document) {
		t.Helper()
		if _, err := db.ImportDoc(d); err != nil {
			t.Fatal(err)
		}
		stored = append(stored, d)
	}

	imp(base)
	for _, n := range []int{3, 17, 64, 100, 199} {
		imp(base.Slice(n))
	}
	imp(model.NewFiller(5, 260, 16, 32)) // extends base
	for _, p := range []int{0, 5, 63, 64, 65, 150} {
		imp(mutateAt(base, p))
	}
	imp(model.NewFiller(6, 150, 16, 32))

	queries := append([]*model.Document(nil), stored...)
	for _, p := range []int{1, 31, 64, 120, 199} {
		queries = append(queries, mutateAt(base, p))
	}
	queries = append(queries,
		base.Slice(8),
		base.Slice(77),
		model.NewFiller(5, 320, 16, 32),               // extends the extension
		model.NewFiller(6, 100, 16, 32),               // truncates the second seed
		model.NewFiller(7, 50, 16, 32),                // unknown seed
		&model.Document{Seed: 7, Tokens: base.Tokens}, // base's tokens, another seed
	)
	for i, q := range queries {
		create(fmt.Sprintf("query %d", i), q).Close()
	}

	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 16; i++ {
		src := stored[rng.Intn(len(stored))]
		var q *model.Document
		switch rng.Intn(3) {
		case 0:
			q = mutateAt(src, rng.Intn(src.Len()))
		case 1:
			q = &model.Document{Seed: src.Seed, Tokens: append([]model.Token(nil), src.Tokens[:1+rng.Intn(src.Len())]...)}
		default:
			q = diverge(src, src.Len(), 1+rng.Intn(40), 100)
		}
		sess := create(fmt.Sprintf("churn %d", i), q)
		sess.PrefillRemaining()
		if _, err := db.Store(sess); err != nil {
			t.Fatal(err)
		}
		sess.Close()
		stored = append(stored, q)
	}

	if fromSpill == 0 || fromResident == 0 {
		t.Errorf("%d lookups won in the spill catalog, %d among residents; want both", fromSpill, fromResident)
	}
	if c := db.TierStats().Counters; c.SpillErrors != 0 || c.ReloadErrors != 0 {
		t.Errorf("tier errors: %+v", c)
	}
}
