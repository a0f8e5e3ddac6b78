package main

import (
	"sync"

	"repro/internal/model"
	"repro/internal/workload"
)

// rng is the benchmark's own seeded generator (splitmix64). Every input —
// documents, suffixes, the access sequence, the ingest schedule — derives
// from one root rng built from -seed; nothing reads math/rand's global or
// the clock, so the same seed always yields the same inputs.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// fork derives an independent stream, so adding a consumer never shifts
// the draws another consumer sees.
func (r *rng) fork(label uint64) *rng {
	return &rng{s: r.next() ^ (label * 0xd6e8feb86659fd93)}
}

// fillerTopics is the background topic range of every generated document
// (planted question topics live far above it; see internal/workload).
const fillerTopics = 64

// docCtx is one generated task document plus everything a request over it
// replays: the pre-generated step queries, indexed [step][layer][head], and
// the tokens the engine "generates" at each step. The timed loop only
// indexes into these.
type docCtx struct {
	inst     workload.Instance
	queries  [][][][]float32
	stepToks []model.Token
}

// profilesFor returns the task profiles documents of n tokens cycle
// through, so every context carries a planted question of a different
// shape: those whose critical set fits with room to spare and that plant no
// distractors. Distractor profiles make the answer depend on how much of
// the attention mass a plan keeps: the stronger-but-fewer ones (En.MC,
// En.QA) are answered by bounded DIPR at this deployment's β on 1 to 6 of 12
// seeds, and the weak-but-many ones (Retr.KV) can be outvoted under exact
// attention, which two of the workloads run. Either would make
// task_accuracy a coin flip per seed instead of a guard.
func profilesFor(n int) []workload.Profile {
	var out []workload.Profile
	for _, p := range workload.InfinityBench() {
		if p.Critical < n/8 && p.Decoys == 0 {
			out = append(out, p)
		}
	}
	return out
}

// newInstance generates document number i of a run: profile round-robin
// over profilesFor(n), seed drawn from r.
func newInstance(m *model.Model, r *rng, i, n int) workload.Instance {
	profiles := profilesFor(n)
	return workload.Generate(profiles[i%len(profiles)], r.next(), n, fillerTopics, m.Config().Vocab)
}

// newDocCtx wraps inst with steps decode-step query sets focused on the
// document's planted question, and the tokens those steps append.
func newDocCtx(m *model.Model, r *rng, inst workload.Instance, steps int) *docCtx {
	mc := m.Config()
	n := inst.Doc.Len()
	d := &docCtx{inst: inst, queries: make([][][][]float32, steps), stepToks: make([]model.Token, steps)}
	for s := range d.queries {
		d.stepToks[s] = model.Token{Topic: r.intn(fillerTopics), Payload: r.intn(mc.Vocab)}
		d.queries[s] = make([][][]float32, mc.Layers)
		for l := range d.queries[s] {
			d.queries[s][l] = make([][]float32, mc.QHeads)
			for h := range d.queries[s][l] {
				d.queries[s][l][h] = m.QueryVector(inst.Doc, l, h, model.QuerySpec{
					FocusTopics: inst.Question, Step: s, ContextLen: n})
			}
		}
	}
	return d
}

// newDocCtxs generates count documents concurrently. The rng streams are
// forked serially first, so the result does not depend on goroutine order.
func newDocCtxs(m *model.Model, r *rng, first, count, n, steps int) []*docCtx {
	out := make([]*docCtx, count)
	forks := make([]*rng, count)
	for i := range forks {
		forks[i] = r.fork(uint64(first + i))
	}
	parallel(count, func(i int) { out[i] = newDocCtx(m, forks[i], newInstance(m, forks[i], first+i, n), steps) })
	return out
}

// parallel runs fn(0..n-1) on up to defaultClients() goroutines (one per
// core the clients will use) and waits.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, defaultClients())
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// shuffle permutes xs in place (Fisher–Yates on r).
func shuffle(r *rng, xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// uniqueTopicBase starts a topic namespace no generated document uses
// (filler topics are below 64, planted questions and decoys at 1<<20 and
// 1<<21).
const uniqueTopicBase = 1 << 22

// uniqueTokens draws n filler tokens for a request's suffix. The first
// one's topic is id in a namespace of its own, so the suffix shares no
// prefix with any other document — stored or yet to be stored — and a
// create reuses exactly the tokens the generator meant it to.
func uniqueTokens(r *rng, id, n, vocab int) []model.Token {
	out := make([]model.Token, n)
	for i := range out {
		out[i] = model.Token{Topic: r.intn(fillerTopics), Payload: r.intn(vocab)}
	}
	out[0].Topic = uniqueTopicBase + id
	return out
}

// extend returns base[:keep] followed by suffix as a new document in the
// base's seed namespace, so the first keep tokens reuse the base's KV.
func extend(base *model.Document, keep int, suffix []model.Token) *model.Document {
	toks := make([]model.Token, 0, keep+len(suffix))
	toks = append(toks, base.Tokens[:keep]...)
	return &model.Document{Seed: base.Seed, Tokens: append(toks, suffix...)}
}
