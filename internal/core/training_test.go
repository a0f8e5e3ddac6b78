package core

import (
	"math"
	"testing"

	"repro/internal/model"
)

// referenceTrainingQueries is TrainingQueries as one model.QueryVector per
// training query, recomputing the recency rows for every query.
func referenceTrainingQueries(m *model.Model, doc *model.Document, layer int, heads []int, rate float64) [][]float32 {
	n := doc.Len()
	perHead := max(int(float64(n)*rate/float64(len(heads))), 8)
	seen := make(map[int]bool)
	var topics []int
	for _, tok := range doc.Tokens {
		if !seen[tok.Topic] {
			seen[tok.Topic] = true
			topics = append(topics, tok.Topic)
		}
	}
	var out [][]float32
	for _, h := range heads {
		for s := 0; s < perHead; s++ {
			spec := model.QuerySpec{FocusTopics: []int{doc.Tokens[(s*7919)%n].Topic}, Step: s, ContextLen: n}
			out = append(out, m.QueryVector(doc, layer, h, spec))
		}
		for i, topic := range topics {
			spec := model.QuerySpec{FocusTopics: []int{topic}, Step: perHead + i, ContextLen: n}
			out = append(out, m.QueryVector(doc, layer, h, spec))
		}
	}
	return out
}

// TestTrainingQueriesMatchQueryVector pins TrainingQueries, which computes
// the recency rows once per KV group, bit for bit against a QueryVector per
// query: for the heads of one group, a single head, heads of two groups
// (whose recency rows differ), and a document shorter than the recency
// span.
func TestTrainingQueriesMatchQueryVector(t *testing.T) {
	m := testModel()
	long := model.NewFiller(31, 200, 12, 32)
	short := model.NewFiller(32, 5, 12, 32)
	for _, tc := range []struct {
		name  string
		doc   *model.Document
		heads []int
	}{
		{"one group", long, m.QueryHeadsOf(1)},
		{"single head", long, []int{1}},
		{"two groups", long, []int{3, 0, 2}},
		{"short document", short, []int{0, 1, 2, 3}},
	} {
		for layer := 0; layer < m.Config().Layers; layer++ {
			got := TrainingQueries(m, tc.doc, layer, tc.heads, 0.3)
			want := referenceTrainingQueries(m, tc.doc, layer, tc.heads, 0.3)
			if got.Rows() != len(want) {
				t.Fatalf("%s layer %d: %d queries, want %d", tc.name, layer, got.Rows(), len(want))
			}
			for i, w := range want {
				for j, v := range got.Row(i) {
					if math.Float32bits(v) != math.Float32bits(w[j]) {
						t.Fatalf("%s layer %d query %d dim %d: %v, want %v", tc.name, layer, i, j, v, w[j])
					}
				}
			}
		}
	}
}
