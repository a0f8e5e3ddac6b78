package alayaclient

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// statsServer serves a fixed JSON body at /v1/stats, standing in for a
// daemon of a different version than this client.
func statsServer(t *testing.T, body string) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/stats" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(body))
	}))
	t.Cleanup(ts.Close)
	c, err := NewClient(WithBaseURL(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStatsOlderServer decodes a stats body from a server predating the
// prefix-sharing fields: absent fields must come back zero, present ones
// intact — upgrading the client alone must not break against a fleet of
// older daemons.
func TestStatsOlderServer(t *testing.T) {
	c := statsServer(t, `{
		"contexts": 3,
		"stored_bytes": 4096,
		"evictions": 1,
		"device_used_gb": 0.5,
		"open_sessions": 2,
		"spill_enabled": true,
		"spilled_contexts": 1,
		"key_bytes": 2048,
		"value_bytes": 2048,
		"quant_enabled": false
	}`)
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Contexts != 3 || st.StoredBytes != 4096 || st.SpilledContexts != 1 {
		t.Fatalf("legacy fields mangled: %+v", st)
	}
	if st.SharedContexts != 0 || st.PinnedContexts != 0 || st.SharedPrefixBytes != 0 ||
		st.PrefixLookups != 0 || st.CoWStores != 0 || st.ReloadErrors != 0 || st.SpillErrors != 0 {
		t.Fatalf("fields absent from the wire must decode to zero: %+v", st)
	}
	if st.IndexBuilds != 0 || st.IndexBuildMillis != 0 || st.LastIndexBuildMillis != 0 {
		t.Fatalf("index-build fields absent from the wire must decode to zero: %+v", st)
	}
}

// TestStatsNewerServer decodes a stats body carrying both the
// prefix-sharing fields and unknown fields: the known fields must land and
// the unknown ones must be ignored, not rejected. The unknown set includes
// the context-sharding counters and the prefix_tree_docs gauge older
// daemons still emit.
func TestStatsNewerServer(t *testing.T) {
	c := statsServer(t, `{
		"contexts": 5,
		"shared_contexts": 4,
		"pinned_contexts": 2,
		"shared_prefix_bytes": 1048576,
		"prefix_tree_docs": 5,
		"prefix_lookups": 100,
		"prefix_hits": 80,
		"prefix_spill_hits": 3,
		"cow_stores": 4,
		"spill_errors": 1,
		"reload_errors": 2,
		"index_builds": 6,
		"index_build_ms": 420,
		"last_index_build_ms": 55,
		"sharded_builds": 3,
		"shards_built": 24,
		"sharded_probes": 1000,
		"shard_probes": 8000,
		"shards_per_probe": 8.0,
		"some_future_field": {"nested": [1, 2, 3]},
		"another_unknown": "ignored"
	}`)
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.SharedContexts != 4 || st.PinnedContexts != 2 || st.SharedPrefixBytes != 1<<20 {
		t.Fatalf("sharing fields mangled: %+v", st)
	}
	if st.PrefixLookups != 100 || st.PrefixHits != 80 || st.PrefixSpillHits != 3 || st.CoWStores != 4 {
		t.Fatalf("counter fields mangled: %+v", st)
	}
	if st.SpillErrors != 1 || st.ReloadErrors != 2 {
		t.Fatalf("tier error fields mangled: %+v", st)
	}
	if st.IndexBuilds != 6 || st.IndexBuildMillis != 420 || st.LastIndexBuildMillis != 55 {
		t.Fatalf("index-build fields mangled: %+v", st)
	}
}
