package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"repro/internal/attention"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/devmem"
	"repro/internal/model"
	"repro/internal/serve"
	agrpc "repro/internal/serve/grpc"
	"repro/pkg/alayaclient"
)

// The four workloads. Names are final: later issues cite them.
const (
	wlLongLocal = "long-local"
	wlShortHTTP = "short-http"
	wlChurn     = "churn-sq8-stream"
	wlCluster   = "cluster-mix"
)

var workloadNames = []string{wlLongLocal, wlShortHTTP, wlChurn, wlCluster}

// spec is one workload's shape after scaling. Full scale is the
// benchmark; smoke scale (contexts and thresholds ÷ 8, fewer steps) is the
// tier-1 test that keeps the benchmark compiling and its checks honest.
type spec struct {
	name          string
	longThreshold int
	ctxLen        int // stored context length the requests reuse
	steps         int // decode steps per request (fixed)
	batch         int // StepStream batch size; 0 = unary Step

	// churn-sq8-stream only.
	bases       int     // stored bases
	budgetBases float64 // ContextBudget in units of one stored base
	suffix      int     // unique tokens appended per request
	divergeAt   int     // reused prefix length of a diverging request
	storeEvery  int     // CoW Store on every storeEvery-th request
	coldAt      []float64
	zipf        float64

	// cluster-mix only.
	shardTokens int
	shardedLen  int // length of the range-sharded document
	shardEvery  int // every shardEvery-th request is sharded
}

func specFor(name string, smoke bool) (spec, error) {
	div, stepDiv := 1, 1
	if smoke {
		div, stepDiv = 8, 4
	}
	s := spec{name: name, longThreshold: 1024 / div}
	switch name {
	case wlLongLocal:
		s.ctxLen, s.steps = 4096/div, 32/stepDiv
	case wlShortHTTP:
		s.ctxLen, s.steps = 256/div, 64/stepDiv
	case wlChurn:
		s.ctxLen, s.steps, s.batch = 2048/div, 32/stepDiv, 8
		if smoke {
			s.batch = 4
		}
		s.bases, s.budgetBases, s.suffix = 6, 3.5, 64/div
		s.divergeAt = s.ctxLen * 3 / 4
		s.storeEvery = 4
		// Progress points (fractions of the run) at which a client ingests a
		// brand-new document; client c is offset so ingests do not all
		// collide. Fractions of the run, not request indexes, so every run
		// holds the same number of these heavy requests however fast it is.
		s.coldAt = []float64{0.25, 0.65}
		s.zipf = 2
	case wlCluster:
		s.ctxLen, s.steps = 1024/div, 32/stepDiv
		s.shardTokens, s.shardedLen, s.shardEvery = 1024/div, 2048/div, 4
	default:
		return s, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return s, nil
}

// modelConfig is the one scaled-down deployment shape every DB uses.
func modelConfig() model.Config {
	mc := model.Default()
	mc.Layers, mc.QHeads, mc.KVHeads, mc.HeadDim = 4, 8, 2, 128
	return mc
}

// placementTries bounds the search for a document the router places as
// intended.
const placementTries = 512

// clusterNodePort is the first of cluster-mix's fixed node ports; node i
// listens 111·i above it (the router's hash cannot tell apart addresses that
// differ only in their last character when it places a document's spans).
const clusterNodePort = 47101

// maxOpenSessions sizes the device: weights, one window per open session,
// and a few KiB of slack — so the coarse block cache can never fit and long
// contexts always plan DIPR (the paper's constrained-GPU regime).
const maxOpenSessions = 16

// window is core's default device window, spelled out because the device
// is sized from it before the DB exists.
var window = attention.Window{Sinks: 32, Recent: 32}

func windowBytes(mc model.Config) int64 {
	return int64(window.Sinks+window.Recent) * int64(mc.Layers) * int64(mc.KVHeads) * int64(mc.HeadDim) * 4 * 2
}

// node is one in-process alayad: DB, service, and (on the wire workloads)
// a loopback listener.
type node struct {
	db   *core.DB
	dev  *devmem.Device
	svc  *serve.Service
	addr string
}

// client is one closed-loop caller: its depth-1 path and its request
// sequence (progress is how far the run is, 0 to 1).
type client struct {
	path path
	next func(progress float64) *request
}

// bench is one assembled workload: servers up, contexts stored, queries
// generated, clients connected.
type bench struct {
	spec        spec
	m           *model.Model
	nodes       []*node
	router      *cluster.Router
	clients     []*client
	clientLayer string // layer label of the depth-1 spans
	// depth2 is the serve.Core the client path fronts, called in-process.
	depth2 serve.Core
	// dbFor returns the DB holding the stored context a request reuses
	// (depth 3).
	dbFor   func(r *request) *core.DB
	docs    []*docCtx // the stored contexts, for probes and checks
	scratch string
	closers []func()
}

func (b *bench) close() {
	for i := len(b.closers) - 1; i >= 0; i-- {
		b.closers[i]()
	}
}

func (b *bench) newDevice() *devmem.Device {
	return devmem.New(b.m.WeightsBytes() + maxOpenSessions*windowBytes(b.m.Config()) + 4096)
}

// newNode starts one DB + Service. mutate adjusts the shared deployment
// config for the workload (quantization, spill tier, budget).
func (b *bench) newNode(mutate func(*core.Config)) (*node, error) {
	dev := b.newDevice()
	cfg := core.Config{Model: b.m, Device: dev, Window: window, LongThreshold: b.spec.longThreshold}
	if mutate != nil {
		mutate(&cfg)
	}
	db, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	n := &node{db: db, dev: dev, svc: serve.NewService(db)}
	b.nodes = append(b.nodes, n)
	b.closers = append(b.closers, func() {
		n.svc.Close()
		n.db.Close()
	})
	return n, nil
}

// listen serves handler on loopback (h2c-capable, so the same helper
// carries HTTP and gRPC) and returns its address. port 0 takes any free
// port; a fixed port falls back to the next free one above it.
func (b *bench) listen(handler http.Handler, port int) (string, error) {
	var ln net.Listener
	var err error
	for try := 0; try < 64; try++ {
		if ln, err = net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port)); err == nil || port == 0 {
			break
		}
		port++
	}
	if err != nil {
		return "", err
	}
	hs := agrpc.NewHTTPServer(ln.Addr().String(), handler)
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	b.closers = append(b.closers, func() {
		hs.Close()
		<-done
	})
	return ln.Addr().String(), nil
}

// importAll stores docs in db through ImportDoc, a few at a time.
func (b *bench) importAll(db *core.DB, docs []*docCtx) error {
	errs := make([]error, len(docs))
	parallel(len(docs), func(i int) { _, errs[i] = db.ImportDoc(docs[i].inst.Doc) })
	return errors.Join(errs...)
}

// sampleEvery spaces the requests whose outputs are kept for the oracle:
// four steps of every sampleEvery-th request, cycling (layer, kv head) so
// all of them get checked; a recorder keeps the first maxSampledRequests of
// them per phase.
const (
	sampleEvery        = 2
	maxSampledRequests = 6
)

// mark tags request number n of client c for oracle sampling when due.
func (b *bench) mark(r *request, c, n int) {
	r.sampleLayer, r.sampleKV = -1, -1
	if n%sampleEvery != 0 {
		return
	}
	k := c*maxSampledRequests + n/sampleEvery
	mc := b.m.Config()
	r.sampleLayer = k % mc.Layers
	r.sampleKV = (k / mc.Layers) % mc.KVHeads
	r.sampleSteps = []int{0, r.steps / 3, 2 * r.steps / 3, r.steps - 1}
}

func newBench(name string, smoke bool, seed uint64, clients int, scratch string) (*bench, error) {
	sp, err := specFor(name, smoke)
	if err != nil {
		return nil, err
	}
	b := &bench{spec: sp, m: model.New(modelConfig()), scratch: scratch, clientLayer: "alayaclient"}
	root := &rng{s: seed}
	switch name {
	case wlLongLocal:
		err = b.setupResident(root, clients, "local")
	case wlShortHTTP:
		err = b.setupResident(root, clients, "http")
	case wlChurn:
		err = b.setupChurn(root, clients)
	case wlCluster:
		err = b.setupCluster(root, clients)
	}
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// setupResident builds long-local and short-http: one resident context per
// client, full reuse, unary steps — in-process on the Service, or through
// the SDK over binary HTTP.
func (b *bench) setupResident(root *rng, clients int, transport string) error {
	n, err := b.newNode(nil)
	if err != nil {
		return err
	}
	b.docs = newDocCtxs(b.m, root, 0, clients, b.spec.ctxLen, b.spec.steps)
	if err := b.importAll(n.db, b.docs); err != nil {
		return err
	}
	b.depth2 = n.svc
	b.dbFor = func(*request) *core.DB { return n.db }
	var p path = corePath{c: n.svc}
	if transport == "http" {
		addr, err := b.listen(serve.NewServerFor(n.svc).Handler(), 0)
		if err != nil {
			return err
		}
		n.addr = addr
		cli, err := alayaclient.NewClient(alayaclient.WithBaseURL("http://" + addr))
		if err != nil {
			return err
		}
		p = sdkPath{cli: cli}
	} else {
		b.clientLayer = "serve"
	}
	for c := 0; c < clients; c++ {
		c, d, issued := c, b.docs[c], 0
		b.clients = append(b.clients, &client{path: p, next: func(float64) *request {
			r := &request{id: c*1_000_000 + issued, kind: "resident", ctx: d, doc: d.inst.Doc,
				wantReuse: d.inst.Doc.Len(), steps: b.spec.steps, answer: d.inst.Answer}
			b.mark(r, c, issued)
			issued++
			return r
		}})
	}
	return nil
}

// setupChurn builds churn-sq8-stream: a memory-constrained multi-tenant
// node — SQ8 key plane, spill tier, a context budget that holds about 3.5
// of 6 stored bases — driven over gRPC with streamed step batches.
func (b *bench) setupChurn(root *rng, clients int) error {
	sp := b.spec
	spill := filepath.Join(b.scratch, "spill")
	if err := os.MkdirAll(spill, 0o755); err != nil {
		return err
	}
	perTok, err := b.storedBytesPerToken(true)
	if err != nil {
		return err
	}
	n, err := b.newNode(func(cfg *core.Config) {
		cfg.QuantKeys = true
		cfg.SpillDir = spill
		cfg.ContextBudget = int64(sp.budgetBases * float64(sp.ctxLen) * perTok)
	})
	if err != nil {
		return err
	}
	b.docs = newDocCtxs(b.m, root, 0, sp.bases, sp.ctxLen, sp.steps)
	// Serial imports, least popular base first: the budget evicts in import
	// order, so the run starts with the popular bases resident — the state
	// the access skew converges to — instead of opening with a reload storm,
	// and the starting resident set does not depend on goroutine scheduling.
	for i := len(b.docs) - 1; i >= 0; i-- {
		if _, err := n.db.ImportDoc(b.docs[i].inst.Doc); err != nil {
			return err
		}
	}
	// The brand-new documents clients ingest mid-run, generated now so the
	// timed loop only ships them.
	cold := newDocCtxs(b.m, root, sp.bases, clients*len(sp.coldAt), sp.ctxLen, sp.steps)

	b.depth2 = n.svc
	b.dbFor = func(*request) *core.DB { return n.db }
	addr, err := b.listen(agrpc.NewServer(n.svc).Handler(), 0)
	if err != nil {
		return err
	}
	n.addr = addr

	// Zipf-skewed base popularity: a hot head that stays resident and a
	// tail that keeps getting evicted, spilled and reloaded. Each client
	// draws bases from shuffled blocks holding every base in its Zipf
	// proportion, so every run issues the same access mix and only the order
	// is the seed's: the realised skew does not wander from seed to seed.
	block := zipfBlock(sp.bases, sp.zipf)
	vocab := b.m.Config().Vocab
	for c := 0; c < clients; c++ {
		cli, err := alayaclient.NewClient(alayaclient.WithGRPCAddr(addr))
		if err != nil {
			return err
		}
		b.closers = append(b.closers, func() { cli.Close() })
		c, r, issued, colds := c, root.fork(uint64(1000+c)), 0, 0
		var pending []int
		b.clients = append(b.clients, &client{path: sdkPath{cli: cli}, next: func(progress float64) *request {
			id := c*1_000_000 + issued
			idx := issued
			issued++
			// Stagger clients' ingests by a twentieth of the run each.
			if colds < len(sp.coldAt) && progress >= sp.coldAt[colds]+0.05*float64(c) {
				d := cold[c*len(sp.coldAt)+colds]
				colds++
				req := &request{id: id, kind: "cold", ctx: d, doc: d.inst.Doc, wantReuse: 0,
					steps: sp.steps, batch: sp.batch, store: true, answer: d.inst.Answer}
				b.mark(req, c, idx)
				return req
			}
			if len(pending) == 0 {
				pending = append(pending, block...)
				shuffle(r, pending)
			}
			base := pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			d := b.docs[base]
			req := &request{id: id, ctx: d, steps: sp.steps, batch: sp.batch,
				store: idx%sp.storeEvery == sp.storeEvery-1, answer: d.inst.Answer, coldRaceOK: clients > 1}
			if idx%2 == 0 {
				req.kind, req.wantReuse = "extend", sp.ctxLen
			} else {
				req.kind, req.wantReuse = "diverge", sp.divergeAt
				for _, pos := range d.inst.Critical {
					if pos >= sp.divergeAt {
						req.answer = -1 // the answer was cut off with the tail
					}
				}
			}
			req.doc = extend(d.inst.Doc, req.wantReuse, uniqueTokens(r, id, sp.suffix, vocab))
			b.mark(req, c, idx)
			return req
		}})
	}
	return nil
}

// zipfBlock returns a block of 4·bases base indexes in which base i appears
// in proportion to 1/(i+1)^s (at least once).
func zipfBlock(bases int, s float64) []int {
	var total float64
	w := make([]float64, bases)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		total += w[i]
	}
	size := 4 * bases
	var block []int
	for i := bases - 1; i >= 1; i-- {
		n := int(math.Round(float64(size) * w[i] / total))
		if n < 1 {
			n = 1
		}
		for ; n > 0; n-- {
			block = append(block, i)
		}
	}
	for len(block) < size { // the head takes whatever rounding left over
		block = append(block, 0)
	}
	return block
}

// storedBytesPerToken imports a small calibration document into a
// throwaway DB and returns the stored footprint per token (KV, SQ8 plane,
// indexes). The churn budget is set in multiples of this, so "3.5 of 6
// bases fit" stays true if a later change alters the storage format.
func (b *bench) storedBytesPerToken(quant bool) (float64, error) {
	const n = 128
	db, err := core.New(core.Config{Model: b.m, QuantKeys: quant})
	if err != nil {
		return 0, err
	}
	defer db.Close()
	ctx, err := db.ImportDoc(model.NewFiller(1, n, fillerTopics, b.m.Config().Vocab))
	if err != nil {
		return 0, err
	}
	return float64(ctx.Bytes()) / n, nil
}

// setupCluster builds cluster-mix: a router mounted on a gRPC server over
// two in-process gRPC nodes. Three of four requests reuse a stored context
// routed whole to its owner; the fourth cold-prefills a document the router
// range-shards across both nodes.
func (b *bench) setupCluster(root *rng, clients int) error {
	sp := b.spec
	var addrs []string
	for i := 0; i < 2; i++ {
		n, err := b.newNode(nil)
		if err != nil {
			return err
		}
		// The router places a document by hashing it with the nodes'
		// addresses, so the nodes take fixed ports: with any-port listeners the
		// same seed would draw different documents from run to run.
		if n.addr, err = b.listen(agrpc.NewServer(n.svc).Handler(), clusterNodePort+111*i); err != nil {
			return err
		}
		addrs = append(addrs, n.addr)
	}
	router, err := cluster.NewRouter(cluster.Options{Peers: addrs, ShardTokens: sp.shardTokens, ProbeInterval: -1})
	if err != nil {
		return err
	}
	b.router = router
	b.closers = append(b.closers, func() { router.Close() })
	raddr, err := b.listen(agrpc.NewServerFor(router).Handler(), 0)
	if err != nil {
		return err
	}
	b.depth2 = router

	// Rendezvous hashing places a document by its hash and the nodes'
	// addresses; left alone, how the clients' contexts spread over the nodes
	// would be a coin flip per seed. So documents are drawn until placement
	// is the one intended: client c's whole context on node c mod 2, a
	// sharded document's spans on both nodes (the router's hash keeps both
	// spans of about 19 documents in 20 on one node, so this takes tries).
	pick := func(label uint64, i, n int, want func(sessions []int) bool) (*docCtx, error) {
		for try := uint64(0); try < placementTries; try++ {
			r := root.fork(label + try)
			inst := newInstance(b.m, r, i, n)
			sessions, err := b.placement(inst.Doc)
			if err != nil {
				return nil, err
			}
			if want(sessions) {
				return newDocCtx(b.m, r, inst, sp.steps), nil
			}
		}
		return nil, fmt.Errorf("cluster-mix: no document with the intended placement in %d tries", placementTries)
	}
	sharded := make([]*docCtx, clients)
	for c := 0; c < clients; c++ {
		c := c
		d, err := pick(uint64(2*c)*placementTries, c, sp.ctxLen, func(s []int) bool { return s[c%2] == 1 })
		if err != nil {
			return err
		}
		b.docs = append(b.docs, d)
		sharded[c], err = pick(uint64(2*c+1)*placementTries, clients+c, sp.shardedLen, func(s []int) bool { return s[0] > 0 && s[1] > 0 })
		if err != nil {
			return err
		}
	}

	// Whole-context documents are stored through the router, like a tenant
	// would.
	errs := make([]error, clients)
	parallel(clients, func(i int) { errs[i] = storeThrough(corePath{c: router}, b.docs[i].inst.Doc) })
	if err := errors.Join(errs...); err != nil {
		return err
	}
	// The node that stored a document is found by asking each node's DB how
	// much of it a session would reuse; the answer per document is kept.
	owners := map[*model.Document]*core.DB{}
	b.dbFor = func(r *request) *core.DB {
		if db, ok := owners[r.doc]; ok {
			return db
		}
		owners[r.doc] = b.nodes[0].db
		for _, n := range b.nodes {
			s, reused := n.db.CreateSession(r.doc)
			s.Close()
			if reused == r.doc.Len() {
				owners[r.doc] = n.db
			}
		}
		return owners[r.doc]
	}

	for c := 0; c < clients; c++ {
		cli, err := alayaclient.NewClient(alayaclient.WithGRPCAddr(raddr))
		if err != nil {
			return err
		}
		b.closers = append(b.closers, func() { cli.Close() })
		c, issued := c, 0
		b.clients = append(b.clients, &client{path: sdkPath{cli: cli}, next: func(float64) *request {
			n := issued
			issued++
			d, kind, want := b.docs[c], "routed", sp.ctxLen
			if n%sp.shardEvery == sp.shardEvery-1 {
				d, kind, want = sharded[c], "sharded", 0
			}
			r := &request{id: c*1_000_000 + n, kind: kind, ctx: d, doc: d.inst.Doc, wantReuse: want,
				steps: sp.steps, answer: d.inst.Answer}
			b.mark(r, c, n)
			return r
		}})
	}
	return nil
}

// storeThrough runs create → prefill → store → close on p: how a tenant
// makes a context reusable.
func storeThrough(p path, doc *model.Document) error {
	s, _, err := p.create(doc)
	if err != nil {
		return err
	}
	defer s.close()
	if err := s.prefill(); err != nil {
		return err
	}
	return s.store()
}

// placement opens (and closes) a session for doc on the router and returns
// how many of its shards each node received.
func (b *bench) placement(doc *model.Document) ([]int, error) {
	resp, err := b.router.CreateSession(&serve.CreateSessionRequest{Seed: doc.Seed, Tokens: doc.Tokens})
	if err != nil {
		return nil, err
	}
	st, err := b.router.Stats()
	if _, cerr := b.router.CloseSession(resp.SessionID); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	sessions := make([]int, len(st.Cluster.Nodes))
	for i, n := range st.Cluster.Nodes {
		sessions[i] = n.Sessions
	}
	return sessions, nil
}
