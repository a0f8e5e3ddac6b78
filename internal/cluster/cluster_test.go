package cluster

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/attention"
	"repro/internal/core"
	"repro/internal/index/graph"
	"repro/internal/model"
	"repro/internal/serve"
	agrpc "repro/internal/serve/grpc"
	"repro/internal/serve/grpc/pb"
	"repro/internal/workload"
)

// testNode is one in-process alayad: a full Service behind a real gRPC
// listener, killable mid-test.
type testNode struct {
	addr string
	srv  *serve.Server
	hs   *http.Server
}

func (n *testNode) kill() { n.hs.Close() }

// newTestModel is the conformance geometry: small enough to be fast,
// deep enough (2 layers, grouped heads, graph retrieval) to exercise
// every merge dimension.
func newTestModel() *model.Model {
	cfg := model.Default()
	cfg.Layers = 2
	cfg.QHeads = 4
	cfg.KVHeads = 2
	cfg.Vocab = 32
	return model.New(cfg)
}

func startNode(t *testing.T) *testNode {
	t.Helper()
	return startNodeWith(t, nil)
}

// startNodeWith is startNode with the gRPC handler passed through wrap,
// so a test can stand a misbehaving peer in front of a real Service.
func startNodeWith(t *testing.T, wrap func(http.Handler) http.Handler) *testNode {
	t.Helper()
	db, err := core.New(core.Config{
		Model:         newTestModel(),
		Window:        attention.Window{Sinks: 4, Recent: 16},
		LongThreshold: 256,
		Graph:         graph.Config{Degree: 12, QueryKNN: 8, EfConstruction: 48},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(db)
	gsrv := agrpc.NewServer(srv.Service())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := gsrv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	hs := agrpc.NewHTTPServer(ln.Addr().String(), h)
	go hs.Serve(ln)
	n := &testNode{addr: ln.Addr().String(), srv: srv, hs: hs}
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
		db.Close()
	})
	return n
}

// newTestRouter stands up n in-process nodes and a router over them, with
// background probing off so tests drive health transitions explicitly.
func newTestRouter(t *testing.T, n, shardTokens int) (*Router, []*testNode) {
	t.Helper()
	nodes := make([]*testNode, n)
	addrs := make([]string, n)
	for i := range nodes {
		nodes[i] = startNode(t)
		addrs[i] = nodes[i].addr
	}
	r, err := NewRouter(Options{Peers: addrs, ShardTokens: shardTokens, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, nodes
}

// testWorkload is the shared conformance instance: a 300-token retrieval
// document with planted critical tokens.
func testWorkload() (workload.Instance, *model.Model) {
	p, _ := workload.ProfileByName("Retr.P")
	return workload.Generate(p, 23, 300, 64, 32), newTestModel()
}

func queriesFor(m *model.Model, inst workload.Instance, step int) [][][]float32 {
	mc := m.Config()
	qs := make([][][]float32, mc.Layers)
	for l := range qs {
		qs[l] = make([][]float32, mc.QHeads)
		for h := range qs[l] {
			qs[l][h] = m.QueryVector(inst.Doc, l, h, model.QuerySpec{
				FocusTopics: inst.Question, Step: step, ContextLen: inst.Doc.Len()})
		}
	}
	return qs
}

func mustFrame(t *testing.T, v interface{}) []byte {
	t.Helper()
	b, err := serve.MarshalFrame(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func createPrefilled(t *testing.T, c serve.Core, inst workload.Instance) int64 {
	t.Helper()
	resp, err := c.CreateSession(&serve.CreateSessionRequest{Seed: inst.Doc.Seed, Tokens: inst.Doc.Tokens})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Prefill(resp.SessionID); err != nil {
		t.Fatal(err)
	}
	return resp.SessionID
}

// TestSpansDerivation pins the span geometry contract: splits depend only
// on document length and threshold, the tail is always open, and the
// fixed spans tile [0, tail.Lo) exactly.
func TestSpansDerivation(t *testing.T) {
	cases := []struct {
		n, threshold, want int
	}{
		{300, 0, 1},   // sharding off
		{100, 100, 1}, // at the threshold: whole
		{101, 100, 2},
		{300, 100, 3},
		{5, 2, 3},
	}
	for _, tc := range cases {
		spans := Spans(tc.n, tc.threshold)
		if len(spans) != tc.want {
			t.Fatalf("Spans(%d, %d) = %v, want %d spans", tc.n, tc.threshold, spans, tc.want)
		}
		last := spans[len(spans)-1]
		if !last.Open() {
			t.Fatalf("Spans(%d, %d): tail %v is not open", tc.n, tc.threshold, last)
		}
		lo := 0
		for _, sp := range spans[:len(spans)-1] {
			if sp.Lo != lo || sp.Hi <= sp.Lo || sp.Hi >= tc.n {
				t.Fatalf("Spans(%d, %d): bad fixed span %v at lo %d", tc.n, tc.threshold, sp, lo)
			}
			lo = sp.Hi
		}
		if last.Lo != lo || last.Lo >= tc.n {
			t.Fatalf("Spans(%d, %d): tail %v does not continue from %d", tc.n, tc.threshold, last, lo)
		}
	}
}

// TestRendezvousPlacement pins the placement function: deterministic,
// and actually spreading shards over the nodes.
func TestRendezvousPlacement(t *testing.T) {
	addrs := []string{"a:1", "b:1", "c:1"}
	seen := map[int]bool{}
	for key := uint64(0); key < 64; key++ {
		i := rendezvousPick(key, 0, addrs)
		if j := rendezvousPick(key, 0, addrs); j != i {
			t.Fatalf("placement of key %d not deterministic: %d then %d", key, i, j)
		}
		seen[i] = true
	}
	if len(seen) != len(addrs) {
		t.Fatalf("64 keys landed on only %d of %d nodes", len(seen), len(addrs))
	}
}

// TestRoutedWholeBitwiseIdentity is the 3-node conformance check: a
// whole-context session routed through the cluster must produce
// attend-only step, step and step_stream responses byte-for-byte
// identical to the same sequence on a standalone single-node service —
// routing proxies frames, it never re-computes.
func TestRoutedWholeBitwiseIdentity(t *testing.T) {
	inst, m := testWorkload()
	router, _ := newTestRouter(t, 3, 0)
	direct := startNode(t).srv.Service()

	rid := createPrefilled(t, router, inst)
	did := createPrefilled(t, direct, inst)

	// Attention on every layer and head before any decode.
	areq := &serve.StepRequest{Queries: queriesFor(m, inst, 0), AttendOnly: true}
	rresp, err := router.Step(rid, areq)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := direct.Step(did, areq)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustFrame(t, rresp), mustFrame(t, dresp)) {
		t.Fatal("attend-only step: routed response differs from single-node")
	}
	dresp.Release()

	// A decode sequence, step by step.
	for step := 0; step < 4; step++ {
		req := &serve.StepRequest{Token: inst.Doc.Tokens[step], Queries: queriesFor(m, inst, step)}
		rresp, err := router.Step(rid, req)
		if err != nil {
			t.Fatal(err)
		}
		dresp, err := direct.Step(did, req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustFrame(t, rresp), mustFrame(t, dresp)) {
			t.Fatalf("step %d: routed response differs from single-node", step)
		}
		dresp.Release()
	}

	// step_stream: same batch, same item sequence.
	batch := &serve.StepsRequest{Steps: []serve.StepRequest{
		{Token: inst.Doc.Tokens[4], Queries: queriesFor(m, inst, 4)},
		{Token: inst.Doc.Tokens[5], Queries: queriesFor(m, inst, 5)},
	}}
	var routed, local [][]byte
	if err := router.StepStream(context.Background(), rid, batch, func(sr *serve.StepResponse) error {
		routed = append(routed, mustFrame(t, sr))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := direct.StepStream(context.Background(), did, batch, func(sr *serve.StepResponse) error {
		local = append(local, mustFrame(t, sr))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(routed) != len(local) {
		t.Fatalf("step_stream: %d routed items, %d local", len(routed), len(local))
	}
	for i := range routed {
		if !bytes.Equal(routed[i], local[i]) {
			t.Fatalf("step_stream item %d: routed frame differs from single-node", i)
		}
	}
}

// TestShardedTopologyInvariance pins the sharded contract: because spans
// derive from document length and threshold alone, per-shard compute is
// deterministic, and the merge folds in fixed span order, a range-sharded
// context must produce bitwise-identical results on a 1-node and a 3-node
// cluster.
func TestShardedTopologyInvariance(t *testing.T) {
	inst, m := testWorkload()
	one, _ := newTestRouter(t, 1, 100)
	three, _ := newTestRouter(t, 3, 100)

	aid := createPrefilled(t, one, inst)
	bid := createPrefilled(t, three, inst)

	for _, r := range []*Router{one, three} {
		s, serr := r.session(1)
		if serr != nil {
			t.Fatal(serr)
		}
		if len(s.shards) != 3 {
			t.Fatalf("expected 3 range shards for %d tokens at threshold 100, got %d", inst.Doc.Len(), len(s.shards))
		}
	}

	req := &serve.StepRequest{Queries: queriesFor(m, inst, 0), AttendOnly: true}
	aresp, err := one.Step(aid, req)
	if err != nil {
		t.Fatal(err)
	}
	bresp, err := three.Step(bid, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustFrame(t, aresp), mustFrame(t, bresp)) {
		t.Fatal("sharded attend-only step differs between 1-node and 3-node topologies")
	}
	if aresp.ContextLen != inst.Doc.Len() {
		t.Fatalf("sharded attend-only step: context len %d, want %d", aresp.ContextLen, inst.Doc.Len())
	}

	for step := 0; step < 3; step++ {
		sreq := &serve.StepRequest{Token: inst.Doc.Tokens[step], Queries: queriesFor(m, inst, step)}
		astep, err := one.Step(aid, sreq)
		if err != nil {
			t.Fatal(err)
		}
		bstep, err := three.Step(bid, sreq)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustFrame(t, astep), mustFrame(t, bstep)) {
			t.Fatalf("sharded step %d differs between topologies", step)
		}
		if astep.ContextLen != inst.Doc.Len()+step+1 {
			t.Fatalf("sharded step %d: context len %d, want %d", step, astep.ContextLen, inst.Doc.Len()+step+1)
		}
	}
}

// TestShardedMatchesMonolithic bounds the merge error: folding per-span
// partials through log-sum-exp must reproduce the monolithic softmax to
// float tolerance (it is exact in real arithmetic; float32 summation
// order differs).
func TestShardedMatchesMonolithic(t *testing.T) {
	inst, m := testWorkload()
	sharded, _ := newTestRouter(t, 3, 100)
	direct := startNode(t).srv.Service()

	sid := createPrefilled(t, sharded, inst)
	did := createPrefilled(t, direct, inst)

	req := &serve.StepRequest{Token: inst.Doc.Tokens[0], Queries: queriesFor(m, inst, 0)}
	sresp, err := sharded.Step(sid, req)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := direct.Step(did, req)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Release()
	if sresp.ContextLen != dresp.ContextLen {
		t.Fatalf("context len: sharded %d, monolithic %d", sresp.ContextLen, dresp.ContextLen)
	}
	for l := range dresp.Layers {
		for h := range dresp.Layers[l] {
			want, got := dresp.Layers[l][h].Output, sresp.Layers[l][h].Output
			if len(want) != len(got) {
				t.Fatalf("layer %d head %d: dim %d vs %d", l, h, len(got), len(want))
			}
			for i := range want {
				if d := float64(want[i] - got[i]); d > 1e-3 || d < -1e-3 {
					t.Fatalf("layer %d head %d dim %d: sharded %g vs monolithic %g", l, h, i, got[i], want[i])
				}
			}
		}
	}
}

// TestShardedLifecycle covers the sharded session's non-tensor surface:
// prefill counts span the whole document, a step's token lands on the
// open tail, store conflicts, close releases every shard.
func TestShardedLifecycle(t *testing.T) {
	inst, m := testWorkload()
	router, nodes := newTestRouter(t, 3, 100)

	resp, err := router.CreateSession(&serve.CreateSessionRequest{Seed: inst.Doc.Seed, Tokens: inst.Doc.Tokens})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := router.Prefill(resp.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Prefilled != inst.Doc.Len() || pf.ContextLen != inst.Doc.Len() {
		t.Fatalf("sharded prefill: %+v, want %d tokens", pf, inst.Doc.Len())
	}

	up, err := router.Step(resp.SessionID, &serve.StepRequest{Token: inst.Doc.Tokens[0], Queries: queriesFor(m, inst, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if up.ContextLen != inst.Doc.Len()+1 {
		t.Fatalf("sharded step: context len %d, want %d", up.ContextLen, inst.Doc.Len()+1)
	}

	if _, err := router.Store(resp.SessionID); err == nil {
		t.Fatal("storing a sharded session must conflict")
	} else if se, ok := err.(*serve.Error); !ok || se.Kind != serve.KindConflict {
		t.Fatalf("sharded store: got %v, want conflict", err)
	}

	if _, err := router.CloseSession(resp.SessionID); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if hz := n.srv.Service().Healthz(); hz.OpenSessions != 0 {
			t.Fatalf("node %s still holds %d sessions after close", n.addr, hz.OpenSessions)
		}
	}
	st, err := router.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil || st.Cluster.Sessions != 0 || st.Cluster.Fanouts == 0 {
		t.Fatalf("router stats after lifecycle: %+v", st.Cluster)
	}
}

// TestNodeKillDegradation is the failure-isolation contract: killing one
// node turns calls against its sessions into typed unavailable errors
// and demotes the node in stats, while sessions on the surviving nodes
// keep decoding.
func TestNodeKillDegradation(t *testing.T) {
	_, m := testWorkload()
	router, nodes := newTestRouter(t, 3, 0)

	// Open sessions over distinct documents until two land on different
	// nodes.
	p, _ := workload.ProfileByName("Retr.P")
	type placed struct {
		id   int64
		node *node
		inst workload.Instance
	}
	byNode := map[*node]placed{}
	for seed := uint64(1); seed < 40 && len(byNode) < 2; seed++ {
		inst := workload.Generate(p, seed, 300, 64, 32)
		resp, err := router.CreateSession(&serve.CreateSessionRequest{Seed: inst.Doc.Seed, Tokens: inst.Doc.Tokens})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := router.Prefill(resp.SessionID); err != nil {
			t.Fatal(err)
		}
		s, serr := router.session(resp.SessionID)
		if serr != nil {
			t.Fatal(serr)
		}
		owner := s.shards[0].node
		if _, ok := byNode[owner]; !ok {
			byNode[owner] = placed{id: resp.SessionID, node: owner, inst: inst}
		}
	}
	if len(byNode) < 2 {
		t.Fatal("could not place sessions on two distinct nodes")
	}

	var victim, survivor placed
	for _, pl := range byNode {
		if victim.node == nil {
			victim = pl
		} else if survivor.node == nil {
			survivor = pl
		}
	}
	for _, n := range nodes {
		if n.addr == victim.node.addr {
			n.kill()
		}
	}

	// The victim's session dies with a typed unavailable...
	sreq := &serve.StepRequest{Token: victim.inst.Doc.Tokens[0], Queries: queriesFor(m, victim.inst, 0)}
	_, err := router.Step(victim.id, sreq)
	if err == nil {
		t.Fatal("step against a killed node must fail")
	}
	se, ok := err.(*serve.Error)
	if !ok || se.Kind != serve.KindUnavailable {
		t.Fatalf("step against killed node: got %v, want kind unavailable", err)
	}

	// ...while the survivor's session keeps decoding.
	sreq = &serve.StepRequest{Token: survivor.inst.Doc.Tokens[0], Queries: queriesFor(m, survivor.inst, 0)}
	if _, err := router.Step(survivor.id, sreq); err != nil {
		t.Fatalf("step on surviving node failed: %v", err)
	}

	// The failed call demoted the node; a probe round keeps it demoted
	// (the process is gone) and counts the reconnect attempt.
	router.ProbeNow()
	st, err := router.Stats()
	if err != nil {
		t.Fatal(err)
	}
	downs := 0
	for _, n := range st.Cluster.Nodes {
		if !n.Healthy {
			downs++
			if n.Addr != victim.node.addr {
				t.Fatalf("wrong node demoted: %s", n.Addr)
			}
		}
	}
	if downs != 1 {
		t.Fatalf("%d nodes demoted, want exactly 1", downs)
	}
	if st.Cluster.Unavailable == 0 || st.Cluster.Retries == 0 {
		t.Fatalf("cluster counters after kill: %+v", st.Cluster)
	}

	// New placements owned by the dead node are refused with the same
	// typed kind.
	for seed := uint64(100); seed < 200; seed++ {
		inst := workload.Generate(p, seed, 64, 64, 32)
		doc := model.Document{Seed: inst.Doc.Seed, Tokens: inst.Doc.Tokens}
		if router.owner(core.DocHash(&doc), 0).addr != victim.node.addr {
			continue
		}
		_, err := router.CreateSession(&serve.CreateSessionRequest{Seed: inst.Doc.Seed, Tokens: inst.Doc.Tokens})
		if se, ok := err.(*serve.Error); !ok || se.Kind != serve.KindUnavailable {
			t.Fatalf("create on dead owner: got %v, want unavailable", err)
		}
		return
	}
	t.Fatal("no probe document hashed to the dead node")
}

// TestRouterRejectsExplicitSpans pins that span placement is the
// router's own job.
func TestRouterRejectsExplicitSpans(t *testing.T) {
	inst, _ := testWorkload()
	router, _ := newTestRouter(t, 1, 0)
	_, err := router.CreateSession(&serve.CreateSessionRequest{
		Seed: inst.Doc.Seed, Tokens: inst.Doc.Tokens, SpanLo: 0, SpanHi: 10,
	})
	if se, ok := err.(*serve.Error); !ok || se.Kind != serve.KindBadRequest {
		t.Fatalf("explicit span create: got %v, want bad_request", err)
	}
}

// TestRouterUnknownSession pins the not-found contract for ids the
// router never placed.
func TestRouterUnknownSession(t *testing.T) {
	router, _ := newTestRouter(t, 1, 0)
	if _, err := router.Prefill(424242); err == nil {
		t.Fatal("prefill of unknown session must fail")
	} else if se, ok := err.(*serve.Error); !ok || se.Kind != serve.KindNotFound {
		t.Fatalf("unknown session: got %v, want not_found", err)
	}
}

// TestRoutedSurfaceParity covers the rest of the whole-context surface —
// an attend-only step after decoding, and healthz — against the direct
// single-node service.
func TestRoutedSurfaceParity(t *testing.T) {
	inst, m := testWorkload()
	router, _ := newTestRouter(t, 2, 0)
	direct := startNode(t).srv.Service()

	rid := createPrefilled(t, router, inst)
	did := createPrefilled(t, direct, inst)

	for i, req := range []*serve.StepRequest{
		{Token: inst.Doc.Tokens[0], Queries: queriesFor(m, inst, 0)},
		{Queries: queriesFor(m, inst, 1), AttendOnly: true},
	} {
		rresp, err := router.Step(rid, req)
		if err != nil {
			t.Fatal(err)
		}
		dresp, err := direct.Step(did, req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustFrame(t, rresp), mustFrame(t, dresp)) {
			t.Fatalf("step %d (attend_only %v): routed response differs from single-node", i, req.AttendOnly)
		}
		if rresp.ContextLen != inst.Doc.Len()+1 {
			t.Fatalf("step %d: context len %d, want %d", i, rresp.ContextLen, inst.Doc.Len()+1)
		}
		dresp.Release()
	}

	if hz := router.Healthz(); hz.Status != "ok" || hz.OpenSessions != 1 {
		t.Fatalf("router healthz = %+v", hz)
	}
}

// TestRoutedStoreProxy pins that storing a whole-context session proxies
// to the owning node (sharded stores conflict; see TestShardedLifecycle).
func TestRoutedStoreProxy(t *testing.T) {
	inst, _ := testWorkload()
	router, nodes := newTestRouter(t, 2, 0)
	rid := createPrefilled(t, router, inst)
	st, err := router.Store(rid)
	if err != nil {
		t.Fatal(err)
	}
	if st.StoredTokens != inst.Doc.Len() {
		t.Fatalf("stored %d tokens, want %d", st.StoredTokens, inst.Doc.Len())
	}
	stored := 0
	for _, n := range nodes {
		nst, err := n.srv.Service().Stats()
		if err != nil {
			t.Fatal(err)
		}
		stored += nst.Contexts
	}
	if stored != 1 {
		t.Fatalf("%d contexts stored across nodes, want 1", stored)
	}
}

// TestShardedStreamMatchesSteps pins the sharded streaming path: the
// per-step merged frames a 3-node sharded session streams are exactly
// the frames unary Steps return on a twin session.
func TestShardedStreamMatchesSteps(t *testing.T) {
	inst, m := testWorkload()
	router, _ := newTestRouter(t, 3, 100)
	id := createPrefilled(t, router, inst)

	batch := &serve.StepsRequest{Steps: []serve.StepRequest{
		{Token: inst.Doc.Tokens[0], Queries: queriesFor(m, inst, 0)},
		{Token: inst.Doc.Tokens[1], Queries: queriesFor(m, inst, 1)},
	}}
	var streamed [][]byte
	if err := router.StepStream(context.Background(), id, batch, func(sr *serve.StepResponse) error {
		streamed = append(streamed, mustFrame(t, sr))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(batch.Steps) {
		t.Fatalf("stream yielded %d items, want %d", len(streamed), len(batch.Steps))
	}

	// A fresh identical session replays the same batch step by step.
	twin := createPrefilled(t, router, inst)
	for i := range batch.Steps {
		resp, err := router.Step(twin, &batch.Steps[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed[i], mustFrame(t, resp)) {
			t.Fatalf("stream item %d differs from the unary step", i)
		}
	}

	st, err := router.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster.Merges == 0 || st.Cluster.Fanouts == 0 {
		t.Fatalf("sharded traffic not accounted: %+v", st.Cluster)
	}
}

// TestRoutedStreamChecksBatchFirst pins that a routed step_stream refuses
// a batch a node would refuse before any step runs, whole or sharded: a
// step with a ragged query grid, a step whose grid shape differs from
// step 0's, or more than MaxSteps steps is a bad request with no item
// streamed and no token ingested. A lone ragged Step is a bad request too.
func TestRoutedStreamChecksBatchFirst(t *testing.T) {
	inst, m := testWorkload()
	for _, tc := range []struct {
		name        string
		shardTokens int
	}{{"whole", 0}, {"sharded", 100}} {
		t.Run(tc.name, func(t *testing.T) {
			router, _ := newTestRouter(t, 3, tc.shardTokens)
			id := createPrefilled(t, router, inst)
			good := serve.StepRequest{Token: inst.Doc.Tokens[0], Queries: queriesFor(m, inst, 0)}

			ragged := queriesFor(m, inst, 1)
			ragged[1][2] = make([]float32, 3)
			reshaped := queriesFor(m, inst, 1)[:1]
			over := make([]serve.StepRequest, serve.MaxSteps+1)
			for i := range over {
				over[i] = good
			}
			for _, bad := range []struct {
				name  string
				steps []serve.StepRequest
			}{
				{"ragged step", []serve.StepRequest{good, good, {Token: good.Token, Queries: ragged}}},
				{"reshaped step", []serve.StepRequest{good, good, {Token: good.Token, Queries: reshaped}}},
				{"over MaxSteps", over},
			} {
				items := 0
				err := router.StepStream(context.Background(), id, &serve.StepsRequest{Steps: bad.steps},
					func(*serve.StepResponse) error { items++; return nil })
				if se, ok := err.(*serve.Error); !ok || se.Kind != serve.KindBadRequest {
					t.Fatalf("%s: err %v, want bad_request", bad.name, err)
				}
				if items != 0 {
					t.Fatalf("%s: %d items streamed before the refusal", bad.name, items)
				}
			}

			if _, err := router.Step(id, &serve.StepRequest{Token: good.Token, Queries: ragged}); err == nil {
				t.Fatal("ragged step succeeded")
			} else if se, ok := err.(*serve.Error); !ok || se.Kind != serve.KindBadRequest {
				t.Fatalf("ragged step: err %v, want bad_request", err)
			}

			// Nothing was ingested: the context is still the document.
			probe, err := router.Step(id, &serve.StepRequest{Queries: good.Queries, AttendOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			if probe.ContextLen != inst.Doc.Len() {
				t.Fatalf("context len %d after refused batches, want %d", probe.ContextLen, inst.Doc.Len())
			}
		})
	}
}

// TestProbeLoopDemotesAndCounts runs the background probe for real: a
// killed node is demoted by the loop (no call needed) and reconnect
// attempts are counted; Close stops the loop cleanly.
func TestProbeLoopDemotesAndCounts(t *testing.T) {
	nodes := make([]*testNode, 2)
	addrs := make([]string, 2)
	for i := range nodes {
		nodes[i] = startNode(t)
		addrs[i] = nodes[i].addr
	}
	r, err := NewRouter(Options{Peers: addrs, ProbeInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	nodes[1].kill()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := r.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if !st.Cluster.Nodes[1].Healthy && st.Cluster.Nodes[0].Healthy {
			if st.Cluster.Retries == 0 {
				// Demoted but not yet re-probed; keep waiting for the
				// reconnect counter.
				if time.Now().Before(deadline) {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				t.Fatal("probe loop never counted a reconnect attempt")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("probe loop never demoted the killed node: %+v", st.Cluster)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMergeHeadEdgeCases pins the fold's boundary behavior directly:
// all-empty partials produce a sentinel-LSE zero vector, and a single
// live partial passes through bitwise with weight exactly 1.
func TestMergeHeadEdgeCases(t *testing.T) {
	empty := serve.AttentionResponse{Output: []float32{0, 0}, LSE: serve.LSESentinel, Plan: "empty"}
	live := serve.AttentionResponse{Output: []float32{0.25, -1.5}, LSE: 0.75, Plan: "flat", Retrieved: 3, Attended: 2}

	m := mergeHead([]*serve.AttentionResponse{&empty, &empty})
	if m.LSE != serve.LSESentinel {
		t.Fatalf("all-empty merge LSE = %v, want sentinel", m.LSE)
	}
	for i, v := range m.Output {
		if v != 0 {
			t.Fatalf("all-empty merge output[%d] = %v, want 0", i, v)
		}
	}

	m = mergeHead([]*serve.AttentionResponse{&empty, &live})
	if m.Output[0] != live.Output[0] || m.Output[1] != live.Output[1] {
		t.Fatalf("single-live merge output = %v, want pass-through %v", m.Output, live.Output)
	}
	if m.LSE != live.LSE || m.Retrieved != 3 || m.Attended != 2 {
		t.Fatalf("single-live merge = %+v", m)
	}
}

// TestRoutedStreamRejectsBrokenPeer stands a crafted peer in front of a
// node whose StepStream answer breaks the stream protocol: a terminator
// claiming more items than were sent, or a message carrying bytes after
// its frame. The router must fail the stream as internal — not report a
// clean end, and not demote the node for what is not a transport fault.
func TestRoutedStreamRejectsBrokenPeer(t *testing.T) {
	inst, m := testWorkload()
	item, err := serve.AppendStreamItemFrame(nil, &serve.StepResponse{ContextLen: 1, Layers: [][]serve.AttentionResponse{{{Output: []float32{1}}}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		frames [][]byte
	}{
		{"terminator count", [][]byte{item, serve.AppendStreamEndFrame(nil, 2, serve.ErrorEnvelope{})}},
		{"bytes after frame", [][]byte{append(append([]byte(nil), item...), 0), serve.AppendStreamEndFrame(nil, 1, serve.ErrorEnvelope{})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node := startNodeWith(t, func(real http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path != pb.MethodStepStream {
						real.ServeHTTP(w, r)
						return
					}
					io.Copy(io.Discard, r.Body)
					w.Header().Set("Content-Type", agrpc.ContentType)
					w.Header().Set("Trailer", "Grpc-Status")
					for _, f := range tc.frames {
						msg := (&pb.FrameResponse{Frame: f}).AppendProto(nil)
						w.Write([]byte{0, byte(len(msg) >> 24), byte(len(msg) >> 16), byte(len(msg) >> 8), byte(len(msg))})
						w.Write(msg)
					}
					w.Header().Set("Grpc-Status", "0")
				})
			})
			router, err := NewRouter(Options{Peers: []string{node.addr}, ProbeInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer router.Close()
			id := createPrefilled(t, router, inst)
			steps := &serve.StepsRequest{Steps: []serve.StepRequest{{Token: inst.Doc.Tokens[0], Queries: queriesFor(m, inst, 0)}}}
			err = router.StepStream(context.Background(), id, steps, func(*serve.StepResponse) error { return nil })
			if se, ok := err.(*serve.Error); !ok || se.Kind != serve.KindInternal {
				t.Fatalf("stream from a broken peer: err %v, want kind internal", err)
			}
			if !router.nodes[0].healthy.Load() {
				t.Fatal("a protocol fault demoted the node")
			}
		})
	}
}
