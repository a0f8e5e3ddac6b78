// Package pool provides the shared worker pool that fans AlayaDB's
// independent compute tasks — one decode task per (layer, head or KV
// group), per-layer prefill — across CPUs.
//
// The pool is a counting semaphore over goroutine spawns, not a fixed set
// of worker goroutines. Fan-out helpers always run part of the work on the
// calling goroutine and only spawn extra goroutines while pool slots are
// free, so nested use (a parallel attention call inside a parallel prefill
// sweep) degrades to inline execution instead of deadlocking, and the
// process-wide goroutine count stays bounded by the pool size no matter
// how many sessions fan out at once.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds concurrent task execution. Create pools with New (the zero
// value behaves like the Serial pool: it never spawns and runs every
// fan-out inline). A Pool is safe for concurrent use.
type Pool struct {
	sem chan struct{}
}

// New returns a pool allowing up to size concurrently spawned workers in
// addition to the goroutines that call into it. size < 1 is clamped to 1.
func New(size int) *Pool {
	if size < 1 {
		size = 1
	}
	return &Pool{sem: make(chan struct{}, size)}
}

// Size returns the pool's spawn bound (0 for the Serial pool).
func (p *Pool) Size() int { return cap(p.sem) }

var serialPool = &Pool{}

// Serial returns the pool that never spawns: every fan-out runs inline on
// the calling goroutine, in index order, without creating closures or
// goroutines — and therefore without allocating. It is the pool to wire in
// when measuring or asserting allocation behaviour of a fanned-out path
// (testing.AllocsPerRun), and for strictly deterministic serial execution.
func Serial() *Pool { return serialPool }

var (
	defaultMu   sync.Mutex
	defaultPool *Pool
)

// Default returns the process-wide shared pool, sized by GOMAXPROCS on
// first use. SetDefaultSize resizes it.
func Default() *Pool {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultPool == nil {
		defaultPool = New(runtime.GOMAXPROCS(0))
	}
	return defaultPool
}

// SetDefaultSize replaces the shared pool with one of the given size and
// returns it. Pools handed out by earlier Default calls keep their old
// bound; callers that want the new size must call Default again.
func SetDefaultSize(size int) *Pool {
	p := New(size)
	defaultMu.Lock()
	defaultPool = p
	defaultMu.Unlock()
	return p
}

// ForEach runs fn(0), …, fn(n-1), distributing calls across the calling
// goroutine plus up to Size() pooled workers, and returns when every call
// has finished. Order is unspecified; fn must be safe for concurrent
// invocation with distinct arguments. When the pool is saturated every
// call runs inline on the caller, so ForEach never blocks waiting for a
// slot and never deadlocks under nesting.
func (p *Pool) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	// The single-task and Serial paths return before any closure below is
	// created, so they never allocate.
	if n == 1 || cap(p.sem) == 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	// Spawn at most n-1 helpers: the caller is always one of the workers.
spawn:
	for i := 0; i < n-1; i++ {
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					<-p.sem
					wg.Done()
				}()
				work()
			}()
		default:
			break spawn // saturated: the caller picks up the rest inline
		}
	}
	work()
	wg.Wait()
}

// ForEachScratch is ForEach with per-worker scratch: every worker — the
// caller plus each spawned helper — calls acquire once before claiming its
// first task, passes the value to every fn it runs, and hands it back
// through release when it drains. A K-worker fan-out over N tasks therefore
// costs K acquire/release pairs instead of N, which is what lets a
// sync.Pool-backed arena (attention scratch, search state) amortize across
// a whole multi-head fan-out. Like ForEach, a saturated pool degrades to
// inline execution on the caller's scratch, and the Serial pool runs
// everything inline with a single scratch and no closure or goroutine
// allocation.
func (p *Pool) ForEachScratch(n int, acquire func() interface{}, release func(interface{}), fn func(sc interface{}, i int)) {
	if n <= 0 {
		return
	}
	if n == 1 || cap(p.sem) == 0 {
		sc := acquire()
		for i := 0; i < n; i++ {
			fn(sc, i)
		}
		release(sc)
		return
	}
	var next atomic.Int64
	work := func() {
		i := int(next.Add(1)) - 1
		if i >= n {
			return // drained before acquiring: no scratch churn
		}
		sc := acquire()
		for {
			fn(sc, i)
			i = int(next.Add(1)) - 1
			if i >= n {
				break
			}
		}
		release(sc)
	}
	var wg sync.WaitGroup
	// Spawn at most n-1 helpers: the caller is always one of the workers.
spawn:
	for i := 0; i < n-1; i++ {
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					<-p.sem
					wg.Done()
				}()
				work()
			}()
		default:
			break spawn // saturated: the caller picks up the rest inline
		}
	}
	work()
	wg.Wait()
}
