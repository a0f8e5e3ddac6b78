package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/index/graph"
	"repro/internal/index/knn"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/storage/buffer"
	"repro/internal/vec"
	"repro/internal/workload"
)

func init() {
	register("ablation", "design-choice ablations: GQA sharing, bridge edges, window seed, l0 capacity, buffer policy", runAblation)
}

// runAblation measures the design choices the paper argues for:
//
//	A1  GQA index sharing: recall loss of one-graph-per-group vs
//	    one-graph-per-head (paper §7.2: ≤3%).
//	A2  Bipartite bridge-edge protection: needle reachability with the
//	    pruning exemption on vs off.
//	A3  Window-seeded DIPRS: nodes explored with vs without the §7.1 seed.
//	A4  DIPRS capacity threshold l₀: recall and exploration across values.
//	A5  Buffer manager policy: hit rate of type-aware eviction vs plain
//	    LRU on a graph-traversal block trace.
func runAblation(s Scale, w io.Writer) error {
	m := model.New(s.Model)
	p, _ := workload.ProfileByName("En.QA")
	inst := workload.Generate(p, s.Seed, s.ContextLen, 64, s.Model.Vocab)
	cache := m.BuildKV(inst.Doc)
	layer := 1
	kv := 0
	beta := betaFor(s.Model.HeadDim)
	gcfg := graph.Config{Degree: 16, QueryKNN: 12, EfConstruction: 64, Workers: s.Workers}

	// A1: GQA sharing recall.
	fmt.Fprintln(w, "A1: GQA index sharing (one graph per kv-head group vs per query head)")
	sharedQ := core.TrainingQueries(m, inst.Doc, layer, m.QueryHeadsOf(kv), 0.3)
	shared := graph.Build(cache.Keys(layer, kv), sharedQ, gcfg)
	perHead := make(map[int]*graph.Graph)
	for _, qh := range m.QueryHeadsOf(kv) {
		qs := core.TrainingQueries(m, inst.Doc, layer, []int{qh}, 0.3)
		perHead[qh] = graph.Build(cache.Keys(layer, kv), qs, gcfg)
	}
	const k = 20
	trials := s.Trials * 8
	var sharedRecall, dedicatedRecall float64
	for trial := 0; trial < trials; trial++ {
		qh := m.QueryHeadsOf(kv)[trial%m.GroupSize()]
		q := m.QueryVector(inst.Doc, layer, qh, model.QuerySpec{
			FocusTopics: inst.Question, Step: trial, ContextLen: s.ContextLen})
		truth := knn.Exact(matrixOf(q), cache.Keys(layer, kv), k, 1)
		sharedRecall += knn.Recall(truth, [][]index.Candidate{shared.SearchEf(q, k, 96)})
		dedicatedRecall += knn.Recall(truth, [][]index.Candidate{perHead[qh].SearchEf(q, k, 96)})
	}
	sharedRecall /= float64(trials)
	dedicatedRecall /= float64(trials)
	fmt.Fprintf(w, "  recall@%d: per-head %.3f, shared %.3f (loss %.1f%%; paper: <=3%% top-k recall loss)\n\n",
		k, dedicatedRecall, sharedRecall, 100*(dedicatedRecall-sharedRecall))

	// A2: bridge-edge protection.
	fmt.Fprintln(w, "A2: bipartite bridge-edge pruning exemption")
	needleInst := workload.Generate(mustProfile("Retr.P"), s.Seed+99, s.ContextLen, 64, s.Model.Vocab)
	needleCache := m.BuildKV(needleInst.Doc)
	nq := core.TrainingQueries(m, needleInst.Doc, layer, m.QueryHeadsOf(kv), 0.3)
	withBridges := graph.Build(needleCache.Keys(layer, kv), nq, gcfg)
	noBridgeCfg := gcfg
	noBridgeCfg.DisableBridges = true
	withoutBridges := graph.Build(needleCache.Keys(layer, kv), nq, noBridgeCfg)
	hitWith, hitWithout := 0, 0
	for trial := 0; trial < trials; trial++ {
		qh := m.QueryHeadsOf(kv)[trial%m.GroupSize()]
		q := m.QueryVector(needleInst.Doc, layer, qh, model.QuerySpec{
			FocusTopics: needleInst.Question, Step: trial, ContextLen: s.ContextLen})
		if containsID(query.DIPRS(withBridges, q, query.DIPRSConfig{Beta: beta}).Critical, needleInst.Critical[0]) {
			hitWith++
		}
		if containsID(query.DIPRS(withoutBridges, q, query.DIPRSConfig{Beta: beta}).Critical, needleInst.Critical[0]) {
			hitWithout++
		}
	}
	fmt.Fprintf(w, "  needle reached: with bridges %d/%d, without %d/%d\n\n", hitWith, trials, hitWithout, trials)

	// A3: window seeding.
	fmt.Fprintln(w, "A3: window-cache seeded DIPRS (§7.1)")
	var coldN, warmN, coldCrit, warmCrit int
	winIdx := windowIndices(32, 32, s.ContextLen)
	for trial := 0; trial < trials; trial++ {
		qh := m.QueryHeadsOf(kv)[trial%m.GroupSize()]
		q := m.QueryVector(inst.Doc, layer, qh, model.QuerySpec{
			FocusTopics: inst.Question, Step: trial, ContextLen: s.ContextLen})
		cold := query.DIPRS(shared, q, query.DIPRSConfig{Beta: beta})
		seed, _ := query.WindowMax(q, cache.Keys(layer, kv), winIdx)
		warm := query.DIPRS(shared, q, query.DIPRSConfig{Beta: beta, InitialMax: seed, HasInitialMax: true})
		coldN += cold.Explored
		warmN += warm.Explored
		coldCrit += len(cold.Critical)
		warmCrit += len(warm.Critical)
	}
	fmt.Fprintf(w, "  explored: cold %d, seeded %d (%.0f%% saved); critical found: cold %d, seeded %d\n\n",
		coldN/trials, warmN/trials, 100*float64(coldN-warmN)/float64(coldN), coldCrit/trials, warmCrit/trials)

	// A4: capacity threshold l0.
	fmt.Fprintln(w, "A4: DIPRS capacity threshold l0 (exploration vs pruning)")
	t4 := &table{header: []string{"l0", "explored", "critical found"}}
	for _, l0 := range []int{16, 32, 64, 128, 256} {
		var exp, crit int
		for trial := 0; trial < trials; trial++ {
			qh := m.QueryHeadsOf(kv)[trial%m.GroupSize()]
			q := m.QueryVector(inst.Doc, layer, qh, model.QuerySpec{
				FocusTopics: inst.Question, Step: trial, ContextLen: s.ContextLen})
			res := query.DIPRS(shared, q, query.DIPRSConfig{Beta: beta, Capacity: l0})
			exp += res.Explored
			crit += len(res.Critical)
		}
		t4.add(fmt.Sprintf("%d", l0), fmt.Sprintf("%d", exp/trials), fmt.Sprintf("%d", crit/trials))
	}
	t4.write(w)
	fmt.Fprintln(w)

	// A5: buffer policy on a graph-traversal block trace. Index blocks are
	// re-read constantly (adjacency), data blocks streamed: the type-aware
	// policy should out-hit plain LRU under pressure.
	fmt.Fprintln(w, "A5: buffer eviction policy on a traversal trace (index blocks hot, data blocks streamed)")
	trace := traversalTrace(s.ContextLen)
	t5 := &table{header: []string{"policy", "hit rate"}}
	for _, pol := range []struct {
		name string
		p    buffer.Policy
	}{{"type-aware", buffer.TypeAware}, {"plain LRU", buffer.PlainLRU}} {
		payload := make([]byte, 4096)
		bm := buffer.NewWithPolicy(16*4096, func(buffer.Key) ([]byte, error) { return payload, nil }, pol.p)
		for _, acc := range trace {
			if _, err := bm.Get(acc.key, acc.kind); err != nil {
				return err
			}
			bm.Release(acc.key)
		}
		st := bm.Stats()
		t5.add(pol.name, fmt.Sprintf("%.1f%%", 100*float64(st.Hits)/float64(st.Hits+st.Misses)))
	}
	t5.write(w)
	return nil
}

type access struct {
	key  buffer.Key
	kind buffer.Kind
}

// traversalTrace models graph search I/O: a small hot set of index blocks
// interleaved with a long stream of data blocks (vectors touched once).
func traversalTrace(n int) []access {
	var out []access
	hot := 8
	data := int64(0)
	for step := 0; step < n; step++ {
		out = append(out, access{key: buffer.Key{File: "idx", Block: int64(step % hot)}, kind: buffer.Index})
		for j := 0; j < 3; j++ {
			out = append(out, access{key: buffer.Key{File: "dat", Block: data}, kind: buffer.Data})
			data++
		}
	}
	return out
}

func mustProfile(name string) workload.Profile {
	p, err := workload.ProfileByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

func containsID(cands []index.Candidate, id int) bool {
	for _, c := range cands {
		if int(c.ID) == id {
			return true
		}
	}
	return false
}

func windowIndices(sinks, recent, n int) []int {
	var out []int
	for i := 0; i < sinks && i < n; i++ {
		out = append(out, i)
	}
	for i := n - recent; i < n; i++ {
		if i >= sinks {
			out = append(out, i)
		}
	}
	return out
}

func matrixOf(q []float32) *vec.Matrix {
	m := vec.NewMatrix(0, len(q))
	m.Append(q)
	return m
}
