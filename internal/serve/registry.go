package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Registry is the server's sharded session table. Session IDs are drawn
// from one atomic counter (no lock), and each ID is hashed to a shard
// holding its own mutex and map slice, so registrations and lookups for
// different sessions almost never contend. Each entry additionally carries
// a per-session mutex that serializes the requests on that session —
// every one of them (prefill, step, store, close) grows, reads or
// consumes its KV tail — while everything on other sessions proceeds in
// parallel. See the package comment for the full locking discipline.
type Registry struct {
	nextID atomic.Int64
	shards []registryShard
}

type registryShard struct {
	mu       sync.RWMutex
	sessions map[int64]*sessionEntry
}

// sessionEntry pairs a session with its request lock. closed is set under
// mu when Remove/Drain detach the entry: an Acquire that looked the entry
// up before removal but locked it after must not serve the closed session.
type sessionEntry struct {
	mu     sync.Mutex
	sess   *core.Session
	closed bool
}

// NewRegistry returns a registry with the given shard count, rounded up to
// a power of two (minimum 1) so shard selection is a mask, not a modulo.
func NewRegistry(shards int) *Registry {
	n := 1
	for n < shards {
		n <<= 1
	}
	r := &Registry{shards: make([]registryShard, n)}
	for i := range r.shards {
		r.shards[i].sessions = make(map[int64]*sessionEntry)
	}
	return r
}

// Shards returns the registry's shard count.
func (r *Registry) Shards() int { return len(r.shards) }

func (r *Registry) shardFor(id int64) *registryShard {
	// IDs are sequential, so the low bits alone spread perfectly.
	return &r.shards[int(id)&(len(r.shards)-1)]
}

// Add registers a session and returns its freshly allocated ID. ID
// allocation never takes a lock: the counter is atomic and IDs are unique
// for the registry's lifetime.
func (r *Registry) Add(sess *core.Session) int64 {
	id := r.nextID.Add(1)
	sh := r.shardFor(id)
	sh.mu.Lock()
	sh.sessions[id] = &sessionEntry{sess: sess}
	sh.mu.Unlock()
	return id
}

// Acquire looks up a session and locks its entry. It returns the session,
// a release function that must be called exactly once when the request
// finishes, and whether the session exists. The shard lock is dropped
// before the entry lock is taken, so a slow request on one session never
// stalls lookups of its shard siblings.
func (r *Registry) Acquire(id int64) (*core.Session, func(), bool) {
	sess, release, _, ok := r.acquire(id, nil)
	return sess, release, ok
}

// acquire is Acquire that, when the session's lock is held by another
// request, calls busy (if non-nil) before it blocks, and reports that it
// waited.
func (r *Registry) acquire(id int64, busy func()) (sess *core.Session, release func(), waited, ok bool) {
	sh := r.shardFor(id)
	sh.mu.RLock()
	e, ok := sh.sessions[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, nil, false, false
	}
	if !e.mu.TryLock() {
		if busy != nil {
			busy()
		}
		e.mu.Lock()
		waited = true
	}
	if e.closed {
		e.mu.Unlock()
		return nil, nil, waited, false
	}
	return e.sess, e.mu.Unlock, waited, true
}

// Remove unregisters a session and returns it for closing. It waits for
// every in-flight request on the session to release its entry lock before
// returning, so the caller may Close the session immediately: removal from
// the shard map happens first, which cuts off new acquisitions.
func (r *Registry) Remove(id int64) (*core.Session, bool) {
	sh := r.shardFor(id)
	sh.mu.Lock()
	e, ok := sh.sessions[id]
	if ok {
		delete(sh.sessions, id)
	}
	sh.mu.Unlock()
	if !ok {
		return nil, false
	}
	e.mu.Lock() // drain in-flight requests
	e.closed = true
	e.mu.Unlock()
	return e.sess, true
}

// Len returns the number of registered sessions.
func (r *Registry) Len() int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		n += len(sh.sessions)
		sh.mu.RUnlock()
	}
	return n
}

// Drain removes and returns every registered session, waiting out in-flight
// requests per session as Remove does. Used by Server.Close.
func (r *Registry) Drain() []*core.Session {
	var out []*core.Session
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		entries := make([]*sessionEntry, 0, len(sh.sessions))
		for id, e := range sh.sessions {
			entries = append(entries, e)
			delete(sh.sessions, id)
		}
		sh.mu.Unlock()
		for _, e := range entries {
			e.mu.Lock()
			e.closed = true
			e.mu.Unlock()
			out = append(out, e.sess)
		}
	}
	return out
}
