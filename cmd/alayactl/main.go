// Command alayactl inspects AlayaDB deployments: on-disk artefacts —
// the per-head key and value files of a saved context (kvfile records),
// persisted context directories, the spill tier written by a DB running
// with -spill-dir — and live daemons over the serving API through the Go
// SDK.
//
// Usage:
//
//	alayactl stat <file.keys|file.vals>     print one key or value file's stats
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

	"repro/internal/storage/kvfile"
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
  stat   <kv-file>       print one key or value file's stats
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

// stats dumps a live daemon's statistics — DB, tiers and the per-endpoint
// counters of the serving API.
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
	if st.QuantEnabled {
		fmt.Print(" (keys on the SQ8 grid, spilled as int8)")
	}
	fmt.Println()
	if st.SpillEnabled {
		fmt.Printf("spill tier:     %d contexts, %d bytes, %d spills, %d/%d reload hit/miss\n",
			st.SpilledContexts, st.SpilledBytes, st.Spills, st.ReloadHits, st.ReloadMisses)
		if st.SpillErrors > 0 || st.ReloadErrors > 0 {
			fmt.Printf("tier errors:    %d spill, %d reload\n", st.SpillErrors, st.ReloadErrors)
		}
	}
	if st.PrefixLookups > 0 || st.SharedContexts > 0 {
		fmt.Printf("prefix sharing: %d shared / %d pinned contexts, %d bytes shared\n",
			st.SharedContexts, st.PinnedContexts, st.SharedPrefixBytes)
		fmt.Printf("prefix lookups: %d (%d hits, %d from spill), %d cow stores\n",
			st.PrefixLookups, st.PrefixHits, st.PrefixSpillHits, st.CoWStores)
	}
	if st.IndexBuilds > 0 {
		fmt.Printf("index builds:   %d (%d ms total, last %d ms)\n",
			st.IndexBuilds, st.IndexBuildMillis, st.LastIndexBuildMillis)
	}
	if st.Sched != nil {
		fmt.Printf("scheduler:      %d steps, %d admitted, %d rejected, queue %d/%d\n",
			st.Sched.Items, st.Sched.Admitted, st.Sched.Rejected, st.Sched.QueueDepth, st.Sched.QueueCap)
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

// stat decodes one key or value file, checksums and all, and prints its
// shape.
func stat(path string) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	m, adj, err := kvfile.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("path:         %s\n", path)
	fmt.Printf("vector dim:   %d\n", m.Cols())
	fmt.Printf("vectors:      %d (%d B payload)\n", m.Rows(), m.Bytes())
	if adj != nil {
		edges := 0
		for _, nbrs := range adj {
			edges += len(nbrs)
		}
		fmt.Printf("adjacency:    %d nodes, %d edges\n", len(adj), edges)
	} else {
		fmt.Printf("adjacency:    none\n")
	}
	fmt.Printf("size on disk: %d B\n", info.Size())
	return nil
}

// verify checks a persisted context directory: the manifest parses, and
// every key and value file decodes — checksums, sizes and adjacency — and
// holds the rows the directory owns: every token for a root, the tokens
// past base_len for a copy-on-write tail.
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
		Tokens  []json.RawMessage `json:"tokens"`
		BaseLen int               `json:"base_len"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	rows := len(man.Tokens) - man.BaseLen
	fmt.Printf("manifest: %d layers, %d kv heads, %d tokens, %d owned rows\n",
		man.Model.Layers, man.Model.KVHeads, len(man.Tokens), rows)

	problems := 0
	for l := 0; l < man.Model.Layers; l++ {
		for h := 0; h < man.Model.KVHeads; h++ {
			for _, suffix := range []string{"keys", "vals"} {
				path := filepath.Join(dir, fmt.Sprintf("L%dH%d.%s", l, h, suffix))
				if err := verifyFile(path, rows); err != nil {
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

func verifyFile(path string, wantRows int) error {
	m, _, err := kvfile.ReadFile(path)
	if err != nil {
		return err
	}
	if m.Rows() != wantRows {
		return fmt.Errorf("holds %d vectors, manifest says %d", m.Rows(), wantRows)
	}
	return nil
}
