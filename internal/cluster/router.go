package cluster

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serve"
	agrpc "repro/internal/serve/grpc"
)

// DefaultProbeInterval paces the background health prober.
const DefaultProbeInterval = 2 * time.Second

// defaultProbeTimeout bounds one health probe RPC.
const defaultProbeTimeout = time.Second

// Options configures a Router.
type Options struct {
	// Peers are the gRPC dial targets of the member nodes, in the fixed
	// order that defines the cluster topology. At least one is required.
	Peers []string
	// ShardTokens range-shards any context longer than this many tokens
	// across the cluster; 0 disables sharding (whole-context placement
	// only).
	ShardTokens int
	// ProbeInterval paces the health prober; 0 takes the default,
	// negative disables probing (tests drive probes by hand).
	ProbeInterval time.Duration
	// Dial customizes every peer connection (TLS, receive bounds).
	Dial []agrpc.DialOption
}

// shard is one placed piece of a logical session: the node holding it,
// the session id on that node, and the token span it owns.
type shard struct {
	node     *node
	remoteID int64
	span     Span
}

// rsession is one logical session the router vends: a single
// whole-context shard, or K span shards whose tail (last, open span)
// alone ingests tokens.
type rsession struct {
	shards []shard
}

func (s *rsession) sharded() bool { return len(s.shards) > 1 }

// tail returns the open span shard — the only one that ingests.
func (s *rsession) tail() *shard { return &s.shards[len(s.shards)-1] }

// Router is a serve.Core with no substrate of its own: it places
// contexts on remote alayad nodes (rendezvous hashing over the document
// hash), proxies session calls to the owning node, and for range-sharded
// contexts fans tensor calls across the shard nodes and folds the
// partials through the log-sum-exp merge. Both transports mount it
// exactly as they mount a local Service.
type Router struct {
	nodes       []*node
	addrs       []string
	shardTokens int
	cc          metrics.ClusterCounters

	mu       sync.RWMutex
	sessions map[int64]*rsession
	nextID   atomic.Int64

	probeEvery time.Duration
	stop       chan struct{}
	wg         sync.WaitGroup
}

// NewRouter connects to the configured peers and starts the health
// prober. Dialing is lazy (like gRPC proper), so construction succeeds
// even while peers are still coming up; the first probe round settles
// real health.
func NewRouter(opts Options) (*Router, error) {
	if len(opts.Peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers configured")
	}
	r := &Router{
		shardTokens: opts.ShardTokens,
		sessions:    make(map[int64]*rsession),
		probeEvery:  opts.ProbeInterval,
		stop:        make(chan struct{}),
	}
	if r.probeEvery == 0 {
		r.probeEvery = DefaultProbeInterval
	}
	for _, addr := range opts.Peers {
		r.nodes = append(r.nodes, newNode(addr, opts.Dial...))
		r.addrs = append(r.addrs, addr)
	}
	if r.probeEvery > 0 {
		r.wg.Add(1)
		go r.probeLoop()
	}
	return r, nil
}

// probeLoop revives demoted nodes and demotes silently dead ones. Only
// transitions back to healthy count as retries: a healthy node's routine
// probe is not a reconnect.
func (r *Router) probeLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.ProbeNow()
		}
	}
}

// ProbeNow runs one synchronous health round over every node (the
// prober's tick body, exported so tests and operators can force one).
func (r *Router) ProbeNow() {
	var wg sync.WaitGroup
	for _, n := range r.nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			if !n.healthy.Load() {
				r.cc.Retried()
			}
			n.probe(defaultProbeTimeout)
		}(n)
	}
	wg.Wait()
}

// owner places key (with salt) on a node. Pure topology: health never
// shifts ownership.
func (r *Router) owner(key, salt uint64) *node {
	return r.nodes[rendezvousPick(key, salt, r.addrs)]
}

func (r *Router) session(id int64) (*rsession, *serve.Error) {
	r.mu.RLock()
	s := r.sessions[id]
	r.mu.RUnlock()
	if s == nil {
		return nil, serve.NotFoundf("session %d not found", id)
	}
	return s, nil
}

// fanout runs fn over every shard concurrently and returns the first
// error in span order — deterministic whichever shard failed fastest.
func (r *Router) fanout(shards []shard, fn func(i int, sh *shard) error) error {
	var errs []error
	if len(shards) == 1 {
		r.cc.Routed()
		errs = []error{fn(0, &shards[0])}
	} else {
		r.cc.Fanout(len(shards))
		errs = make([]error, len(shards))
		var wg sync.WaitGroup
		for i := range shards {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = fn(i, &shards[i])
			}(i)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			if se, ok := err.(*serve.Error); ok && se.Kind == serve.KindUnavailable {
				r.cc.Unavailable()
			}
			return err
		}
	}
	return nil
}

// CreateSession places a context. Short documents (and every document
// when sharding is off) land whole on their rendezvous owner — the
// request is forwarded verbatim, so results are bitwise those of the
// owning node. Long documents split into range shards, each a span
// session on its own node carrying the full document (KV generation is
// absolute-position-dependent) but owning only its span.
func (r *Router) CreateSession(req *serve.CreateSessionRequest) (*serve.CreateSessionResponse, error) {
	if req.SpanLo != 0 || req.SpanHi != 0 {
		return nil, serve.BadRequestf("the router derives span shards itself; span_lo/span_hi must be zero")
	}
	doc := model.Document{Seed: req.Seed, Tokens: req.Tokens}
	hash := core.DocHash(&doc)
	spans := Spans(doc.Len(), r.shardTokens)

	shards := make([]shard, len(spans))
	for i, span := range spans {
		shards[i] = shard{node: r.owner(hash, uint64(i)), span: span}
	}
	for i := range shards {
		if !shards[i].node.healthy.Load() {
			r.cc.Unavailable()
			return nil, serve.Unavailablef("node %s (owner of shard %d) is unavailable", shards[i].node.addr, i)
		}
	}

	reused := 0
	err := r.fanout(shards, func(i int, sh *shard) error {
		sreq := req
		if len(shards) > 1 {
			sreq = &serve.CreateSessionRequest{
				Seed:   req.Seed,
				Tokens: req.Tokens,
				SpanLo: sh.span.Lo,
				SpanHi: sh.span.Hi,
			}
		}
		resp, cerr := sh.node.remote.CreateSession(context.Background(), sreq)
		if cerr = sh.node.finish(cerr); cerr != nil {
			return cerr
		}
		sh.remoteID = resp.SessionID
		if len(shards) == 1 {
			reused = resp.Reused
		}
		return nil
	})
	if err != nil {
		// Roll back whatever landed so no node leaks a half-placed context.
		for i := range shards {
			if sh := &shards[i]; sh.remoteID != 0 {
				_, cerr := sh.node.remote.CloseSession(context.Background(), sh.remoteID)
				sh.node.finish(cerr)
			}
		}
		return nil, err
	}

	s := &rsession{shards: shards}
	for i := range shards {
		shards[i].node.sessions.Add(1)
	}
	id := r.nextID.Add(1)
	r.mu.Lock()
	r.sessions[id] = s
	r.mu.Unlock()
	return &serve.CreateSessionResponse{SessionID: id, Reused: reused}, nil
}

// Prefill fans the prefill across every shard; each node ingests its own
// span. Prefilled sums the per-shard work; ContextLen is the tail
// shard's, which spans the whole logical context.
func (r *Router) Prefill(id int64) (*serve.PrefillResponse, error) {
	s, serr := r.session(id)
	if serr != nil {
		return nil, serr
	}
	out := make([]*serve.PrefillResponse, len(s.shards))
	err := r.fanout(s.shards, func(i int, sh *shard) error {
		resp, perr := sh.node.remote.Prefill(context.Background(), sh.remoteID)
		out[i] = resp
		return sh.node.finish(perr)
	})
	if err != nil {
		return nil, err
	}
	resp := &serve.PrefillResponse{ContextLen: out[len(out)-1].ContextLen}
	for _, o := range out {
		resp.Prefilled += o.Prefilled
	}
	return resp, nil
}

// Step runs one decode step. Sharded sessions send the token to every
// shard, but only the open tail span ingests it — the fixed spans serve
// the step attend-only — and each (layer, head) output folds across the
// shards.
func (r *Router) Step(id int64, req *serve.StepRequest) (*serve.StepResponse, error) {
	s, serr := r.session(id)
	if serr != nil {
		return nil, serr
	}
	out := make([]*serve.StepResponse, len(s.shards))
	err := r.fanout(s.shards, func(i int, sh *shard) error {
		sreq := req
		if s.sharded() && !sh.span.Open() {
			sreq = &serve.StepRequest{Token: req.Token, Queries: req.Queries, AttendOnly: true}
		}
		resp, serr := sh.node.remote.Step(context.Background(), sh.remoteID, sreq)
		out[i] = resp
		return sh.node.finish(serr)
	})
	if err != nil {
		return nil, err
	}
	if len(out) == 1 {
		return out[0], nil
	}
	layers := make([][]serve.AttentionResponse, len(out[0].Layers))
	byShard := make([][]serve.AttentionResponse, len(out))
	for l := range out[0].Layers {
		for i, o := range out {
			byShard[i] = o.Layers[l]
		}
		layers[l] = mergeHeads(byShard)
		r.cc.Merged(len(layers[l]))
	}
	return &serve.StepResponse{ContextLen: out[len(out)-1].ContextLen, Layers: layers}, nil
}

// StepStream streams per-step frames. Single-shard sessions proxy the
// remote stream item by item; sharded sessions decode step by step,
// merging each before it flushes — the client sees the identical
// item/terminator sequence either way. The batch is checked whole before
// anything is sent, as a node checks it, so a bad step never leaves the
// earlier ones ingested.
func (r *Router) StepStream(ctx context.Context, id int64, req *serve.StepsRequest, sink func(*serve.StepResponse) error) error {
	if berr := checkBatch(req.Steps); berr != nil {
		return berr
	}
	s, serr := r.session(id)
	if serr != nil {
		return serr
	}
	if !s.sharded() {
		return r.fanout(s.shards, func(_ int, sh *shard) error { return r.proxyStream(ctx, sh, req, sink) })
	}
	for i := range req.Steps {
		if cerr := ctx.Err(); cerr != nil {
			return serve.Unavailablef("stream cancelled: %v", cerr)
		}
		step, err := r.Step(id, &req.Steps[i])
		if err != nil {
			return err
		}
		if serr := sink(step); serr != nil {
			return serr
		}
	}
	return nil
}

// proxyStream relays a whole-context session's remote stream item by
// item, preserving the per-step flush that lets the engine read step N
// while the node decodes step N+1. A cancelled caller is not the node's
// failure and does not demote it.
func (r *Router) proxyStream(ctx context.Context, sh *shard, req *serve.StepsRequest, sink func(*serve.StepResponse) error) error {
	st, err := sh.node.remote.StepStream(ctx, sh.remoteID, req)
	if err == nil {
		defer st.Close()
		var step *serve.StepResponse
		for step, err = st.Recv(); err == nil; step, err = st.Recv() {
			if serr := sink(step); serr != nil {
				return serr
			}
		}
		if err == io.EOF {
			err = nil
		}
	}
	if err != nil && ctx.Err() != nil {
		return serve.Unavailablef("stream cancelled: %v", ctx.Err())
	}
	return sh.node.finish(err)
}

// checkBatch rejects a step_stream batch that a node would refuse, in the
// node's terms: more than serve.MaxSteps steps, a ragged query grid, or a
// step whose grid shape differs from step 0's. Only the model geometry is
// left to the node, and step 0's check there covers every step.
func checkBatch(steps []serve.StepRequest) error {
	if len(steps) > serve.MaxSteps {
		return serve.BadRequestf("batch of %d steps exceeds the %d-step limit", len(steps), serve.MaxSteps)
	}
	var l0, h0, d0 int
	for i := range steps {
		l, h, d, err := serve.StepGeometry(steps[i].Queries)
		if err != nil {
			return serve.BadRequestf("step %d: %v", i, err)
		}
		if i == 0 {
			l0, h0, d0 = l, h, d
		} else if l != l0 || h != h0 || d != d0 {
			return serve.BadRequestf("step %d: query grid %dx%dx%d, step 0's is %dx%dx%d", i, l, h, d, l0, h0, d0)
		}
	}
	return nil
}

// Store persists a whole-context session on its owning node. A sharded
// context has no single node holding the whole KV range, so storing it
// is a conflict — mirrored after DB.Store's span refusal.
func (r *Router) Store(id int64) (*serve.StoreResponse, error) {
	s, serr := r.session(id)
	if serr != nil {
		return nil, serr
	}
	if s.sharded() {
		return nil, serve.Conflictf("session %d is range-sharded across %d nodes; sharded contexts cannot be stored", id, len(s.shards))
	}
	var resp *serve.StoreResponse
	err := r.fanout(s.shards, func(_ int, sh *shard) error {
		var serr error
		resp, serr = sh.node.remote.Store(context.Background(), sh.remoteID)
		return sh.node.finish(serr)
	})
	return resp, err
}

// CloseSession releases every shard. Shards on dead nodes are dropped
// locally anyway — their node closes the remote half when it returns or
// restarts — so one dead peer cannot wedge session cleanup.
func (r *Router) CloseSession(id int64) (*serve.CloseResponse, error) {
	r.mu.Lock()
	s := r.sessions[id]
	delete(r.sessions, id)
	r.mu.Unlock()
	if s == nil {
		return nil, serve.NotFoundf("session %d not found", id)
	}
	for i := range s.shards {
		sh := &s.shards[i]
		_, err := sh.node.remote.CloseSession(context.Background(), sh.remoteID)
		sh.node.finish(err)
		sh.node.sessions.Add(-1)
	}
	return &serve.CloseResponse{Status: "closed"}, nil
}

// Healthz reports the router's own liveness. The router is up as long as
// it runs; per-node health lives in Stats.
func (r *Router) Healthz() *serve.HealthzResponse {
	r.mu.RLock()
	open := len(r.sessions)
	r.mu.RUnlock()
	return &serve.HealthzResponse{Status: "ok", OpenSessions: open}
}

// Stats reports the routing view: per-node health and traffic plus the
// router-wide counters. Substrate fields stay zero — the router holds no
// KV of its own; per-node substrate stats live on the nodes.
func (r *Router) Stats() (*serve.StatsResponse, error) {
	snap := r.cc.Snapshot()
	snap.ShardTokens = r.shardTokens
	r.mu.RLock()
	snap.Sessions = len(r.sessions)
	for _, s := range r.sessions {
		if s.sharded() {
			snap.Sharded++
		}
	}
	r.mu.RUnlock()
	for _, n := range r.nodes {
		snap.Nodes = append(snap.Nodes, metrics.ClusterNodeSnapshot{
			Addr:     n.addr,
			Healthy:  n.healthy.Load(),
			Sessions: int(n.sessions.Load()),
			Calls:    n.nc.Calls(),
			Errors:   n.nc.Errors(),
		})
	}
	return &serve.StatsResponse{
		OpenSessions: snap.Sessions,
		Cluster:      &snap,
	}, nil
}

// Close stops the prober and releases every peer connection. Remote
// sessions are left to their nodes' own drains.
func (r *Router) Close() error {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.wg.Wait()
	for _, n := range r.nodes {
		n.remote.Close()
	}
	return nil
}

var _ serve.Core = (*Router)(nil)
