// Package workload generates the synthetic long-context task suites that
// stand in for ∞-Bench [67] and LongBench [23]. Every task plants a
// ground-truth critical-token set into a filler document:
// the set's size, salience, dispersion and placement reproduce the task
// family's critical-token profile, which is what the paper's evaluation
// actually measures (Observation II / Table 3: different tasks need very
// different numbers of critical tokens).
package workload

import (
	"fmt"

	"repro/internal/attention"
	"repro/internal/model"
	"repro/internal/vec"
)

// Topic-id namespaces: filler topics occupy [0, fillerTopics); question
// topics and decoy topics live far above so they never collide.
const (
	questionTopicBase = 1 << 20
	decoyTopicBase    = 1 << 21
)

// Profile describes a task family's critical-token geometry.
type Profile struct {
	// Name of the task (paper nomenclature, e.g. "Retr.KV", "En.QA").
	Name string
	// Critical is the number of answer-carrying tokens planted.
	Critical int
	// Salience is the topic alignment of critical tokens (1 = needle).
	Salience float32
	// Chunks is how many contiguous runs the critical set splits into
	// (1 = one passage, Critical = fully dispersed singles).
	Chunks int
	// Decoys is the number of distractor tokens aligned with the question
	// topic but carrying a wrong payload.
	Decoys int
	// DecoySalience is the distractors' alignment (< Salience).
	DecoySalience float32
	// TailBias places the critical chunks near the end of the context when
	// true (code-completion / math tasks whose answers are window-local).
	TailBias bool
}

// InfinityBench returns the 8 task profiles standing in for the ∞-Bench
// suite of Table 5, in the paper's column order. The comprehension tasks
// (En.MC, En.QA) plant *stronger-but-fewer* distractors: each decoy token
// outranks each answer token, so correctness requires aggregating enough
// of the answer mass — a fixed small k retrieves the decoys first and
// fails, while the dynamic range query collects the whole answer band.
func InfinityBench() []Profile {
	return []Profile{
		{Name: "Retr.KV", Critical: 2, Salience: 0.95, Chunks: 1, Decoys: 8, DecoySalience: 0.70},
		{Name: "Retr.P", Critical: 1, Salience: 1.0, Chunks: 1},
		{Name: "Retr.N", Critical: 3, Salience: 1.0, Chunks: 1},
		{Name: "Code.D", Critical: 6, Salience: 0.90, Chunks: 2, Decoys: 3, DecoySalience: 0.70, TailBias: true},
		{Name: "En.MC", Critical: 24, Salience: 0.85, Chunks: 2, Decoys: 6, DecoySalience: 0.93},
		{Name: "En.QA", Critical: 60, Salience: 0.80, Chunks: 3, Decoys: 12, DecoySalience: 0.88},
		{Name: "En.Sum", Critical: 150, Salience: 0.60, Chunks: 30},
		{Name: "Math.F", Critical: 10, Salience: 0.90, Chunks: 3, TailBias: true},
	}
}

// LongBench returns the 6 task profiles standing in for the LongBench
// tasks of Table 3, ordered by decreasing critical-set size (the paper's
// measured k follows the same order: Qasper 350 ... TriviaQA 20). All six
// use the stronger-but-fewer distractor construction (see InfinityBench):
// the k a task *requires* then grows with its critical-set size, which is
// exactly the Table 3 phenomenon.
func LongBench() []Profile {
	return []Profile{
		{Name: "Qasper", Critical: 180, Salience: 0.65, Chunks: 20, Decoys: 30, DecoySalience: 0.74},
		{Name: "Passage R.", Critical: 120, Salience: 0.75, Chunks: 6, Decoys: 20, DecoySalience: 0.84},
		{Name: "HotpotQA", Critical: 90, Salience: 0.80, Chunks: 2, Decoys: 15, DecoySalience: 0.89},
		{Name: "QMSum", Critical: 60, Salience: 0.70, Chunks: 12, Decoys: 10, DecoySalience: 0.79},
		{Name: "LCC", Critical: 25, Salience: 0.90, Chunks: 1, Decoys: 4, DecoySalience: 0.99, TailBias: true},
		{Name: "TriviaQA", Critical: 4, Salience: 1.0, Chunks: 1, Decoys: 1, DecoySalience: 1.08},
	}
}

// ProfileByName finds a profile in the built-in suites.
func ProfileByName(name string) (Profile, error) {
	for _, p := range append(InfinityBench(), LongBench()...) {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown task %q", name)
}

// Instance is one generated task: a document with planted critical tokens,
// the question that targets them, and the ground-truth answer.
type Instance struct {
	Task     string
	Doc      *model.Document
	Question []int // focus topics of the decode query
	Answer   int   // payload carried by critical tokens
	Critical []int // planted critical positions (sorted ascending)
	Decoys   []int // planted distractor positions
}

// Generate creates an instance of the profile over a context of n tokens.
// The same (profile, seed, n, vocab) always yields the same instance.
func Generate(p Profile, seed uint64, n, fillerTopics, vocab int) Instance {
	if p.Critical <= 0 || p.Critical >= n/2 {
		panic(fmt.Sprintf("workload: profile %q critical=%d invalid for n=%d", p.Name, p.Critical, n))
	}
	doc := model.NewFiller(seed, n, fillerTopics, vocab)
	r := rngFor(seed, p.Name)

	qTopic := questionTopicBase + int(r.next()%1024)
	answer := int(r.next() % uint64(vocab))
	wrong := (answer + 1 + int(r.next()%uint64(vocab-1))) % vocab

	chunks := p.Chunks
	if chunks <= 0 {
		chunks = 1
	}
	if chunks > p.Critical {
		chunks = p.Critical
	}
	critical := placeChunks(r, n, p.Critical, chunks, p.TailBias)
	for _, pos := range critical {
		doc.Plant(pos, qTopic, answer, p.Salience)
	}

	var decoys []int
	if p.Decoys > 0 {
		used := make(map[int]bool, len(critical))
		for _, c := range critical {
			used[c] = true
		}
		decoys = placeAvoiding(r, n, p.Decoys, used)
		for _, pos := range decoys {
			doc.Plant(pos, qTopic, wrong, p.DecoySalience)
		}
	}
	return Instance{
		Task:     p.Name,
		Doc:      doc,
		Question: []int{qTopic},
		Answer:   answer,
		Critical: critical,
		Decoys:   decoys,
	}
}

// placeChunks scatters `count` positions into `chunks` contiguous runs.
// Placement avoids the first 8 positions (attention sinks). With TailBias,
// runs concentrate in the last eighth of the context.
func placeChunks(r *splitmix, n, count, chunks int, tailBias bool) []int {
	per := count / chunks
	extra := count % chunks
	lo, hi := 8, n-1
	if tailBias {
		lo = n - n/8
		if lo < 8 {
			lo = 8
		}
	}
	span := hi - lo
	used := make(map[int]bool)
	var out []int
	for c := 0; c < chunks; c++ {
		size := per
		if c < extra {
			size++
		}
		if size == 0 {
			continue
		}
		// Find a free run start.
		var start int
		for attempt := 0; ; attempt++ {
			start = lo + int(r.next()%uint64(span))
			if start+size > n {
				continue
			}
			free := true
			for i := 0; i < size; i++ {
				if used[start+i] {
					free = false
					break
				}
			}
			if free || attempt > 64 {
				break
			}
		}
		for i := 0; i < size && start+i < n; i++ {
			if !used[start+i] {
				used[start+i] = true
				out = append(out, start+i)
			}
		}
	}
	sortInts(out)
	return out
}

func placeAvoiding(r *splitmix, n, count int, used map[int]bool) []int {
	var out []int
	for len(out) < count {
		pos := 8 + int(r.next()%uint64(n-8))
		if used[pos] {
			continue
		}
		used[pos] = true
		out = append(out, pos)
	}
	sortInts(out)
	return out
}

// Attend computes one head's attention output over the instance's context
// and reports which positions participated (nil = the whole context).
type Attend func(layer, qHead int, q []float32) (output []float32, attended []int)

// Outcome is the result of evaluating one instance under some attention
// method.
type Outcome struct {
	Correct  bool    // decoded payload == planted answer
	Recovery float64 // mean recovery ratio of attended sets (retrieval heads)
}

// Evaluate runs one decode step over the model's retrieval heads using the
// given attention function, decodes the answer, and measures the
// recovery ratio the attended sets achieve under exact full attention.
func Evaluate(m *model.Model, inst Instance, attend Attend) Outcome {
	n := inst.Doc.Len()
	heads := m.RetrievalHeads()
	outputs := make([]model.HeadOutput, 0, len(heads))
	var recSum float64
	recCount := 0
	for _, hr := range heads {
		q := m.QueryVector(inst.Doc, hr.Layer, hr.QHead, model.QuerySpec{
			FocusTopics: inst.Question,
			ContextLen:  n,
		})
		o, attended := attend(hr.Layer, hr.QHead, q)
		outputs = append(outputs, model.HeadOutput{Layer: hr.Layer, QHead: hr.QHead, Output: o})
		if attended != nil {
			kv := m.KVGroup(hr.QHead)
			keys := keysOf(m, inst.Doc, hr.Layer, kv)
			w := attention.Weights(q, keys)
			recSum += attention.Recovery(w, attended)
			recCount++
		}
	}
	recovery := 1.0
	if recCount > 0 {
		recovery = recSum / float64(recCount)
	}
	return Outcome{
		Correct:  m.DecodeAnswer(outputs) == inst.Answer,
		Recovery: recovery,
	}
}

// keysOf materializes the key matrix for (layer, kvHead) of a document.
// Evaluation-time only; inference paths use prebuilt caches.
func keysOf(m *model.Model, doc *model.Document, layer, kv int) *vec.Matrix {
	n := doc.Len()
	keys := vec.NewMatrix(n, m.Config().HeadDim)
	for i := 0; i < n; i++ {
		keys.SetRow(i, m.KeyVector(doc, i, layer, kv))
	}
	return keys
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

type splitmix struct{ s uint64 }

func rngFor(seed uint64, name string) *splitmix {
	h := seed
	for _, c := range name {
		h = h*1099511628211 + uint64(c)
	}
	return &splitmix{s: h}
}

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
