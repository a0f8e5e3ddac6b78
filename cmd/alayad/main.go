// Command alayad runs AlayaDB as a standalone attention service: inference
// engines connect over HTTP or gRPC, create sessions against stored
// contexts, ship generated tokens in and get attention outputs back — the
// decoupled deployment of Figure 2(d). A long context decodes through DIPR
// (a flat band on the first layer, the graph index on the rest) whatever
// the device holds: unlike Figure 8, the server never plans coarse block
// top-k, and its simulated device only accounts the weights and the
// session windows.
//
//	alayad -addr :8265 -grpc-addr :8266 -layers 4
//
// An engine decodes one token per round trip through POST
// /v1/sessions/{id}/step (binary or JSON body) or the alaya.v1.AlayaDB/Step
// RPC, and N per round trip through step_stream / StepStream. Both
// transports front one service core, so sessions created over one are
// visible to the other.
// GET /v1/healthz answers load-balancer probes, and SIGINT/SIGTERM trigger
// a graceful drain: every listener stops accepting, in-flight requests
// finish, sessions are closed, then the process exits. See internal/serve
// for the endpoint reference and pkg/alayaclient for the Go SDK.
//
// With -peers the process runs as a cluster shard router instead: it owns
// no KV substrate, places contexts on the listed remote alayad nodes, and
// merges range-shard attention partials — the same HTTP and gRPC surfaces
// front the router unchanged.
//
//	alayad -peers node0:8266,node1:8266 -cluster-shard-tokens 4096
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/attention"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/serve"
	agrpc "repro/internal/serve/grpc"
)

// main stays a thin shell around run so that every exit path — including
// listener failures — unwinds run's defers: log.Fatalf calls os.Exit,
// which would skip closing the database (and with it the spill tier's
// persistence) if the fatal paths lived inside the same frame.
func main() {
	if err := run(); err != nil {
		log.Fatalf("alayad: %v", err)
	}
}

// listener is one serving socket; a non-empty cert serves TLS with ALPN
// (gRPC clients dial it with the grpcs:// scheme).
type listener struct {
	hs        *http.Server
	cert, key string
}

func run() error {
	var (
		addr      = flag.String("addr", ":8265", "HTTP listen address")
		grpcAddr  = flag.String("grpc-addr", "", "gRPC (h2c) listen address for the alaya.v1.AlayaDB service (empty = gRPC off)")
		tlsCert   = flag.String("grpc-tls-cert", "", "TLS certificate for the gRPC listener; with -grpc-tls-key switches it from h2c to TLS+ALPN (clients dial grpcs://)")
		tlsKey    = flag.String("grpc-tls-key", "", "TLS private key for the gRPC listener")
		peers     = flag.String("peers", "", "comma-separated gRPC addresses of remote alayad nodes; set = run as a cluster shard router with no local substrate")
		shardToks = flag.Int("cluster-shard-tokens", 0, "router mode: range-shard contexts longer than this many tokens across the cluster (0 = whole-context placement only)")
		layers    = flag.Int("layers", 4, "model layers")
		qheads    = flag.Int("qheads", 8, "query heads per layer")
		kvheads   = flag.Int("kvheads", 2, "kv heads per layer")
		budgetGB  = flag.Float64("context-budget-gb", 0, "stored-context byte budget in GB (0 = unlimited)")
		poolSize  = flag.Int("pool-size", 0, "worker pool size for per-head/per-layer fan-out (0 = GOMAXPROCS)")
		maxBodyMB = flag.Float64("max-body-mb", float64(serve.DefaultMaxBodyBytes)/(1<<20), "request size limit in MiB, for HTTP bodies and gRPC messages alike")
		drainSecs = flag.Int("drain-secs", 15, "graceful shutdown deadline in seconds for in-flight requests")
		spillDir  = flag.String("spill-dir", "", "directory for the disk spill tier: evicted contexts are persisted there and transparently reloaded (empty = eviction drops contexts)")
		spillGB   = flag.Float64("spill-budget-gb", 0, "spill tier byte budget in GB; LRU spilled contexts are deleted over it (0 = unlimited)")
		quant     = flag.Bool("quant-keys", false, "snap key rows to the SQ8 (int8) grid and spill them as packed codes: spilled key files shrink 4x, every resident read stays fp32 (spill dirs are layout-specific)")
		schedQ    = flag.Int("sched-queue", serve.DefaultQueueDepth, "bound on decode steps admitted but not yet started (a stream's remaining steps and steps waiting for a busy session); submits beyond it are rejected with 429 overloaded")
	)
	flag.Parse()

	if (*tlsCert == "") != (*tlsKey == "") {
		return errors.New("-grpc-tls-cert and -grpc-tls-key must be set together")
	}

	maxBody := int64(*maxBodyMB * (1 << 20))
	if *peers != "" {
		router, err := cluster.NewRouter(cluster.Options{
			Peers:       strings.Split(*peers, ","),
			ShardTokens: *shardToks,
		})
		if err != nil {
			return err
		}
		srv := serve.NewServerFor(router, serve.WithMaxBodyBytes(maxBody))
		defer srv.Close()
		log.Printf("alayad: cluster router over %d nodes (%s), shard threshold %d tokens",
			len(strings.Split(*peers, ",")), *peers, *shardToks)
		return serveAll(srv.Handler(), router, maxBody, *addr, *grpcAddr, *tlsCert, *tlsKey, *drainSecs, srv.Close)
	}

	workPool := pool.Default()
	if *poolSize > 0 {
		workPool = pool.SetDefaultSize(*poolSize)
	}

	cfg := model.Default()
	cfg.Layers = *layers
	cfg.QHeads = *qheads
	cfg.KVHeads = *kvheads
	m := model.New(cfg)

	db, err := core.New(core.Config{
		Model:         m,
		Window:        attention.Window{Sinks: 32, Recent: 64},
		ContextBudget: int64(*budgetGB * 1e9),
		Pool:          workPool,
		SpillDir:      *spillDir,
		SpillBudget:   int64(*spillGB * 1e9),
		QuantKeys:     *quant,
	})
	if err != nil {
		return err
	}
	defer db.Close()

	srv := serve.NewServer(db,
		serve.WithMaxBodyBytes(maxBody),
		serve.WithQueueDepth(*schedQ))
	defer srv.Close()
	keyPlane := "fp32"
	if *quant {
		keyPlane = "sq8 grid (int8 spill)"
	}
	log.Printf("alayad: serving attention on %s (model %dL x %dQ x %dKV x d%d, pool %d, keys %s)",
		*addr, cfg.Layers, cfg.QHeads, cfg.KVHeads, cfg.HeadDim, workPool.Size(), keyPlane)
	if *spillDir != "" {
		ts := db.TierStats()
		log.Printf("alayad: spill tier at %s (budget %.2f GB, %d contexts recovered)",
			ts.Dir, *spillGB, ts.SpilledContexts)
	}

	return serveAll(srv.Handler(), srv.Core(), maxBody, *addr, *grpcAddr, *tlsCert, *tlsKey, *drainSecs, srv.Close)
}

// serveAll mounts the HTTP handler and (optionally) the gRPC transport
// over the same core, serves until a signal or a listener failure, then
// drains. maxBody bounds one gRPC request message, the limit the HTTP
// handler already applies to a body. Both transports front the one core —
// a local Service or the cluster router — so sessions created over one
// are visible to the other.
func serveAll(httpHandler http.Handler, c serve.Core, maxBody int64, addr, grpcAddr, tlsCert, tlsKey string, drainSecs int, closeCore func() error) error {
	listeners := []listener{{hs: &http.Server{Addr: addr, Handler: httpHandler}}}
	if grpcAddr != "" {
		gsrv := agrpc.NewServerFor(c, agrpc.WithMaxRecvBytes(maxBody))
		wire := "h2c"
		if tlsCert != "" {
			wire = "tls+alpn"
		}
		listeners = append(listeners, listener{
			hs:   agrpc.NewHTTPServer(grpcAddr, gsrv.Handler()),
			cert: tlsCert,
			key:  tlsKey,
		})
		log.Printf("alayad: serving gRPC (%s, %s) on %s", "alaya.v1.AlayaDB", wire, grpcAddr)
	}
	serveErr := make(chan error, len(listeners))
	for _, l := range listeners {
		l := l
		go func() {
			var err error
			if l.cert != "" {
				err = l.hs.ListenAndServeTLS(l.cert, l.key)
			} else {
				err = l.hs.ListenAndServe()
			}
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				serveErr <- fmt.Errorf("listener %s: %w", l.hs.Addr, err)
			} else {
				serveErr <- nil
			}
		}()
	}

	// Graceful shutdown: stop accepting on every listener, let in-flight
	// requests finish within the drain deadline, then close every session
	// so the daemon is safe to cycle behind a load balancer.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		if err != nil {
			return err
		}
		return errors.New("listener closed unexpectedly")
	case <-sigCtx.Done():
	}
	stop()
	log.Printf("alayad: shutting down (draining up to %ds)", drainSecs)
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(drainSecs)*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, l := range listeners {
		wg.Add(1)
		go func(hs *http.Server) {
			defer wg.Done()
			if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("alayad: shutdown %s: %v", hs.Addr, err)
				// Past the deadline, cut the connections still open: a
				// stream blocked writing to a client that stopped reading
				// holds its session, and closing the service waits for it.
				hs.Close()
			}
		}(l.hs)
	}
	wg.Wait()
	if err := closeCore(); err != nil {
		log.Printf("alayad: closing sessions: %v", err)
	}
	log.Printf("alayad: drained")
	return nil
}
