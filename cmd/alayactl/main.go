// Command alayactl inspects AlayaDB deployments: on-disk artefacts —
// vector files (the vfs block format of §7.3), persisted context
// directories, the spill tier written by a DB running with -spill-dir —
// and live daemons over the serving API through the Go SDK.
//
// Usage:
//
//	alayactl stat <file.keys|file.vals>     print one vector file's stats
//	alayactl verify <context-dir>           check a saved context's integrity
//	alayactl spill <spill-dir>              list the spill tier's contexts
//	alayactl health <base-url>              probe a daemon's /v1/healthz
//	alayactl stats <base-url>               print a daemon's /v1/stats
//	alayactl nodes <base-url>               print a cluster router's per-node health
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/storage/vfs"
	"repro/pkg/alayaclient"
)

func main() {
	if len(os.Args) < 3 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "stat":
		err = stat(os.Args[2])
	case "verify":
		err = verify(os.Args[2])
	case "spill":
		err = spill(os.Args[2])
	case "health":
		err = health(os.Args[2])
	case "stats":
		err = stats(os.Args[2])
	case "nodes":
		err = nodes(os.Args[2])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "alayactl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: alayactl <command> <target>
  stat   <vector-file>   print one vector file's stats
  verify <context-dir>   check a saved context's integrity
  spill  <spill-dir>     list the spill tier's contexts
  health <base-url>      probe a daemon's /v1/healthz
  stats  <base-url>      print a daemon's /v1/stats
  nodes  <base-url>      print a cluster router's per-node health`)
	os.Exit(2)
}

// client builds an SDK client for a daemon address.
func client(baseURL string) (*alayaclient.Client, error) {
	return alayaclient.NewClient(alayaclient.WithBaseURL(baseURL))
}

// health probes a live daemon through the SDK.
func health(baseURL string) error {
	cli, err := client(baseURL)
	if err != nil {
		return err
	}
	hz, err := cli.Healthz(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("status:        %s\n", hz.Status)
	fmt.Printf("open sessions: %d\n", hz.OpenSessions)
	return nil
}

// stats dumps a live daemon's statistics — DB, tiers, quant plane and the
// per-endpoint counters of the serving API.
func stats(baseURL string) error {
	cli, err := client(baseURL)
	if err != nil {
		return err
	}
	st, err := cli.Stats(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("contexts:       %d (%d bytes, %d evictions)\n", st.Contexts, st.StoredBytes, st.Evictions)
	fmt.Printf("open sessions:  %d\n", st.OpenSessions)
	fmt.Printf("device used:    %.3f GB\n", st.DeviceUsedGB)
	fmt.Printf("kv bytes:       keys %d, values %d", st.KeyBytes, st.ValueBytes)
	if st.KeyQuantBytes > 0 {
		fmt.Printf(", sq8 keys %d", st.KeyQuantBytes)
	}
	fmt.Println()
	if st.QuantEnabled {
		fmt.Printf("quant plane:    %d quant / %d fp32 searches, %.1f reranks/search\n",
			st.QuantSearches, st.FP32Searches, st.RerankPerSrch)
	}
	if st.SpillEnabled {
		fmt.Printf("spill tier:     %d contexts, %d bytes, %d spills, %d/%d reload hit/miss\n",
			st.SpilledContexts, st.SpilledBytes, st.Spills, st.ReloadHits, st.ReloadMisses)
		if st.SpillErrors > 0 || st.ReloadErrors > 0 {
			fmt.Printf("tier errors:    %d spill, %d reload\n", st.SpillErrors, st.ReloadErrors)
		}
	}
	if st.PrefixLookups > 0 || st.SharedContexts > 0 {
		fmt.Printf("prefix sharing: %d shared / %d pinned contexts, %d bytes shared, %d docs indexed\n",
			st.SharedContexts, st.PinnedContexts, st.SharedPrefixBytes, st.PrefixTreeDocs)
		fmt.Printf("prefix lookups: %d (%d hits, %d from spill), %d cow stores\n",
			st.PrefixLookups, st.PrefixHits, st.PrefixSpillHits, st.CoWStores)
	}
	if st.IndexBuilds > 0 {
		fmt.Printf("index builds:   %d (%d ms total, last %d ms)\n",
			st.IndexBuilds, st.IndexBuildMillis, st.LastIndexBuildMillis)
	}
	if st.Sched != nil {
		fmt.Printf("scheduler:      %d waves (avg %.1f, max %d of %d), %d admitted, %d rejected, queue %d/%d\n",
			st.Sched.Waves, st.Sched.AvgWave, st.Sched.MaxWave, st.Sched.WaveSize,
			st.Sched.Admitted, st.Sched.Rejected, st.Sched.QueueDepth, st.Sched.QueueCap)
	}
	if len(st.Endpoints) > 0 {
		fmt.Printf("\n%-16s %9s %7s %10s %10s\n", "endpoint", "requests", "errors", "mean ms", "max ms")
		for _, ep := range st.Endpoints {
			fmt.Printf("%-16s %9d %7d %10.3f %10.3f\n",
				ep.Endpoint, ep.Requests, ep.Errors, ep.MeanMillis, ep.MaxMillis)
		}
	}
	if st.EncodeErrors > 0 {
		fmt.Printf("\nencode errors:  %d\n", st.EncodeErrors)
	}
	return nil
}

// nodes prints a cluster router's placement and health view: one row per
// peer with its probe verdict, placed shards and routed-call counters,
// then the router-wide routing totals.
func nodes(baseURL string) error {
	cli, err := client(baseURL)
	if err != nil {
		return err
	}
	st, err := cli.Stats(context.Background())
	if err != nil {
		return err
	}
	if st.Cluster == nil {
		return fmt.Errorf("%s is not a cluster router (no cluster block in /v1/stats)", baseURL)
	}
	cl := st.Cluster
	fmt.Printf("%-28s %-9s %9s %9s %8s\n", "node", "health", "sessions", "calls", "errors")
	for _, n := range cl.Nodes {
		health := "healthy"
		if !n.Healthy {
			health = "DOWN"
		}
		fmt.Printf("%-28s %-9s %9d %9d %8d\n", n.Addr, health, n.Sessions, n.Calls, n.Errors)
	}
	fmt.Printf("\nsessions:     %d open (%d range-sharded", cl.Sessions, cl.Sharded)
	if cl.ShardTokens > 0 {
		fmt.Printf(", threshold %d tokens", cl.ShardTokens)
	}
	fmt.Println(")")
	fmt.Printf("routed calls: %d whole, %d fanouts (%d shard RPCs), %d merges\n",
		cl.Routed, cl.Fanouts, cl.FanoutCalls, cl.Merges)
	fmt.Printf("failures:     %d unavailable, %d probe reconnects\n", cl.Unavailable, cl.Retries)
	return nil
}

// spill lists a DB spill directory: one line per catalogued context with
// its document size, model shape and on-disk footprint — the offline view
// of the catalog the DB keeps in memory.
func spill(root string) error {
	dirs, err := os.ReadDir(root)
	if err != nil {
		return err
	}
	total := int64(0)
	contexts := 0
	fmt.Printf("%-22s %8s %10s  %s\n", "context", "tokens", "bytes", "model")
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		dir := filepath.Join(root, d.Name())
		raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
		if err != nil {
			fmt.Printf("%-22s (no manifest: %v)\n", d.Name(), err)
			continue
		}
		var man struct {
			Model struct {
				Layers  int `json:"Layers"`
				QHeads  int `json:"QHeads"`
				KVHeads int `json:"KVHeads"`
				HeadDim int `json:"HeadDim"`
			} `json:"model"`
			Tokens []json.RawMessage `json:"tokens"`
		}
		if err := json.Unmarshal(raw, &man); err != nil {
			fmt.Printf("%-22s (bad manifest: %v)\n", d.Name(), err)
			continue
		}
		var bytes int64
		if files, err := os.ReadDir(dir); err == nil {
			for _, f := range files {
				if info, err := f.Info(); err == nil && info.Mode().IsRegular() {
					bytes += info.Size()
				}
			}
		}
		fmt.Printf("%-22s %8d %10d  %dL x %dQ x %dKV x d%d\n",
			d.Name(), len(man.Tokens), bytes,
			man.Model.Layers, man.Model.QHeads, man.Model.KVHeads, man.Model.HeadDim)
		total += bytes
		contexts++
	}
	fmt.Printf("\n%d spilled contexts, %d bytes on disk\n", contexts, total)
	return nil
}

func stat(path string) error {
	fs, err := vfs.Open(path)
	if err != nil {
		return err
	}
	defer fs.Close()
	st, err := fs.Stat()
	if err != nil {
		return err
	}
	fmt.Printf("path:         %s\n", st.Path)
	fmt.Printf("block size:   %d B\n", st.BlockSize)
	fmt.Printf("vector dim:   %d\n", st.Dim)
	fmt.Printf("vectors:      %d (%d B payload)\n", st.Vectors, st.VectorBytes)
	fmt.Printf("blocks:       %d\n", st.Blocks)
	fmt.Printf("has index:    %v\n", st.HasIndex)
	fmt.Printf("size on disk: %d B\n", st.SizeOnDisk)
	return nil
}

// verify checks a persisted context directory: the manifest parses, every
// referenced vector file opens, reads back fully, and adjacency chains
// decode.
func verify(dir string) error {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return err
	}
	var man struct {
		Model struct {
			Layers  int `json:"Layers"`
			KVHeads int `json:"KVHeads"`
		} `json:"model"`
		Tokens []json.RawMessage `json:"tokens"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	fmt.Printf("manifest: %d layers, %d kv heads, %d tokens\n",
		man.Model.Layers, man.Model.KVHeads, len(man.Tokens))

	problems := 0
	for l := 0; l < man.Model.Layers; l++ {
		for h := 0; h < man.Model.KVHeads; h++ {
			for _, suffix := range []string{"keys", "vals"} {
				path := filepath.Join(dir, fmt.Sprintf("L%dH%d.%s", l, h, suffix))
				if err := verifyFile(path, len(man.Tokens)); err != nil {
					fmt.Printf("  FAIL %s: %v\n", path, err)
					problems++
				} else {
					fmt.Printf("  ok   %s\n", path)
				}
			}
		}
	}
	if problems > 0 {
		return fmt.Errorf("%d files failed verification", problems)
	}
	fmt.Println("context verified")
	return nil
}

func verifyFile(path string, wantVectors int) error {
	fs, err := vfs.Open(path)
	if err != nil {
		return err
	}
	defer fs.Close()
	if fs.NumVectors() != wantVectors {
		return fmt.Errorf("holds %d vectors, manifest says %d", fs.NumVectors(), wantVectors)
	}
	if _, err := fs.ReadAll(); err != nil {
		return fmt.Errorf("payload: %w", err)
	}
	if _, err := fs.ReadAdjacency(); err != nil {
		return fmt.Errorf("adjacency: %w", err)
	}
	return nil
}
