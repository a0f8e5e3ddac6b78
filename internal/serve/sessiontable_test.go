package serve

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

func TestSessionTableAddAcquireRemove(t *testing.T) {
	sch := newScheduler(nil, 0)
	id := sch.add(nil)
	if id != 1 {
		t.Fatalf("first id = %d, want 1", id)
	}
	if sch.add(nil) != 2 {
		t.Fatal("ids not sequential")
	}
	if n := sch.openSessions(); n != 2 {
		t.Fatalf("openSessions = %d, want 2", n)
	}
	_, release, ok := sch.acquire(id)
	if !ok {
		t.Fatal("acquire missed a registered session")
	}
	release()
	if _, _, ok := sch.acquire(999); ok {
		t.Fatal("acquire found an unregistered id")
	}
	if _, err := sch.enter(999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("step on an unregistered id: %v, want ErrNotFound", err)
	}
	if _, ok := sch.remove(id); !ok {
		t.Fatal("remove missed a registered session")
	}
	if _, ok := sch.remove(id); ok {
		t.Fatal("double remove succeeded")
	}
	if _, _, ok := sch.acquire(id); ok {
		t.Fatal("acquire found a removed session")
	}
	if n := sch.openSessions(); n != 1 {
		t.Fatalf("openSessions after remove = %d, want 1", n)
	}
}

// TestSessionTableIDsUniqueUnderContention allocates IDs from many
// goroutines and asserts no duplicates.
func TestSessionTableIDsUniqueUnderContention(t *testing.T) {
	sch := newScheduler(nil, 0)
	const goroutines, per = 16, 200
	var wg sync.WaitGroup
	ids := make([][]int64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ids[g] = append(ids[g], sch.add(nil))
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[int64]bool, goroutines*per)
	for _, batch := range ids {
		for _, id := range batch {
			if seen[id] {
				t.Fatalf("id %d allocated twice", id)
			}
			seen[id] = true
		}
	}
	if n := sch.openSessions(); n != goroutines*per {
		t.Fatalf("openSessions = %d, want %d", n, goroutines*per)
	}
}

// TestSessionTableAcquireRemoveChurn interleaves a lookup (acquire), a
// unary step's admission (enter) and remove on fresh IDs; under -race
// this exercises the closed-entry re-check that keeps a request that
// looked a session up just before removal from being served after the
// session is closed.
func TestSessionTableAcquireRemoveChurn(t *testing.T) {
	sch := newScheduler(nil, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := sch.add(nil)
				var inner sync.WaitGroup
				inner.Add(3)
				go func() {
					defer inner.Done()
					if _, release, ok := sch.acquire(id); ok {
						release()
					}
				}()
				go func() {
					defer inner.Done()
					if e, err := sch.enter(id); err == nil {
						if e.closed {
							t.Error("a step was admitted on a closed session")
						}
						e.mu.Unlock()
						sch.inflight.Done()
					}
				}()
				go func() {
					defer inner.Done()
					sch.remove(id)
				}()
				inner.Wait()
				if _, _, ok := sch.acquire(id); ok {
					t.Error("acquired a removed session")
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := sch.Stats(); st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after churn, want 0", st.QueueDepth)
	}
}

// TestServeConcurrentSessions hammers one server with parallel
// create/prefill/attend-only step/step/close cycles across many
// goroutines plus concurrent stats polling. Run under -race this is the
// regression for the session table: every request shares its mutex.
func TestServeConcurrentSessions(t *testing.T) {
	_, ts, m := testServer(t)
	mc := m.Config()
	const goroutines, rounds = 8, 3

	var stats atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				p, _ := workload.ProfileByName("Retr.P")
				inst := workload.Generate(p, uint64(100+g), 120, 16, 32)
				doc := DocumentWire{Seed: inst.Doc.Seed, Tokens: inst.Doc.Tokens}
				var created CreateSessionResponse
				if code := postJSON(t, ts.URL+"/v1/sessions", doc, &created); code != http.StatusOK {
					errs <- fmt.Errorf("create: status %d", code)
					return
				}
				base := fmt.Sprintf("%s/v1/sessions/%d", ts.URL, created.SessionID)
				if code := postJSON(t, base+"/prefill", struct{}{}, nil); code != http.StatusOK {
					errs <- fmt.Errorf("prefill: status %d", code)
					return
				}
				qs := stepQueriesFor(m, inst.Doc, inst.Question, 0)
				var att StepResponse
				if code := postJSON(t, base+"/step", StepRequest{Queries: qs, AttendOnly: true}, &att); code != http.StatusOK {
					errs <- fmt.Errorf("attend-only step: status %d", code)
					return
				}
				if att.ContextLen != inst.Doc.Len() || len(att.Layers) != mc.Layers || len(att.Layers[1]) != mc.QHeads {
					errs <- fmt.Errorf("attend-only step: context %d, %d layers", att.ContextLen, len(att.Layers))
					return
				}
				var step StepResponse
				if code := postJSON(t, base+"/step", StepRequest{Token: inst.Doc.Tokens[0], Queries: qs}, &step); code != http.StatusOK {
					errs <- fmt.Errorf("step: status %d", code)
					return
				}
				if step.ContextLen != inst.Doc.Len()+1 {
					errs <- fmt.Errorf("step: context %d, want %d", step.ContextLen, inst.Doc.Len()+1)
					return
				}
				req, _ := http.NewRequest(http.MethodDelete, base, nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("delete: status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < goroutines*rounds; i++ {
			resp, err := http.Get(ts.URL + "/v1/stats")
			if err == nil {
				resp.Body.Close()
				stats.Add(1)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if stats.Load() == 0 {
		t.Error("stats poller never succeeded")
	}
}

// TestServerCloseDrainsAllSessions verifies Close closes every live
// session exactly once and leaves the session table empty.
func TestServerCloseDrainsAllSessions(t *testing.T) {
	srv, ts, _ := testServer(t)
	for i := 0; i < 5; i++ {
		doc := DocumentWire{Seed: 7, Tokens: model.NewFiller(7, 50, 8, 32).Tokens}
		var created CreateSessionResponse
		if code := postJSON(t, ts.URL+"/v1/sessions", doc, &created); code != http.StatusOK {
			t.Fatalf("create %d: status %d", i, code)
		}
	}
	if n := srv.Service().Healthz().OpenSessions; n != 5 {
		t.Fatalf("table holds %d sessions, want 5", n)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n := srv.Service().Healthz().OpenSessions; n != 0 {
		t.Fatalf("table holds %d sessions after Close", n)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
