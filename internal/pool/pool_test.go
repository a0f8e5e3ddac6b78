package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	p := New(4)
	const n = 1000
	var hits [n]atomic.Int32
	p.ForEach(n, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
}

func TestForEachEmptyAndSingle(t *testing.T) {
	p := New(2)
	p.ForEach(0, func(int) { t.Fatal("fn called for n=0") })
	p.ForEach(-3, func(int) { t.Fatal("fn called for n<0") })
	ran := false
	p.ForEach(1, func(i int) {
		if i != 0 {
			t.Fatalf("single task got index %d", i)
		}
		ran = true
	})
	if !ran {
		t.Fatal("single task not run")
	}
}

// TestForEachNested is the deadlock regression: a parallel task that fans
// out again must complete even when the pool is fully saturated, because
// saturated fan-outs run inline on the caller.
func TestForEachNested(t *testing.T) {
	p := New(2)
	var total atomic.Int64
	p.ForEach(8, func(int) {
		p.ForEach(8, func(int) {
			total.Add(1)
		})
	})
	if got := total.Load(); got != 64 {
		t.Fatalf("nested ForEach ran %d inner tasks, want 64", got)
	}
}

func TestForEachBoundsGoroutines(t *testing.T) {
	p := New(3)
	var cur, peak atomic.Int64
	p.ForEach(64, func(int) {
		c := cur.Add(1)
		for {
			old := peak.Load()
			if c <= old || peak.CompareAndSwap(old, c) {
				break
			}
		}
		runtime.Gosched()
		cur.Add(-1)
	})
	// Caller + at most Size() spawned workers.
	if got := peak.Load(); got > int64(p.Size()+1) {
		t.Fatalf("observed %d concurrent tasks, pool size %d", got, p.Size())
	}
}

func TestNewClampsSize(t *testing.T) {
	if got := New(0).Size(); got != 1 {
		t.Fatalf("New(0).Size() = %d, want 1", got)
	}
	if got := New(-5).Size(); got != 1 {
		t.Fatalf("New(-5).Size() = %d, want 1", got)
	}
}

func TestDefaultAndSetDefaultSize(t *testing.T) {
	if Default() == nil {
		t.Fatal("Default returned nil")
	}
	old := Default().Size()
	p := SetDefaultSize(7)
	if p.Size() != 7 || Default() != p {
		t.Fatalf("SetDefaultSize(7): got size %d, default identity %v", Default().Size(), Default() == p)
	}
	SetDefaultSize(old) // restore for other tests sharing the process
}

func TestSerialRunsInlineInOrder(t *testing.T) {
	p := Serial()
	if p.Size() != 0 {
		t.Fatalf("Serial pool size %d, want 0", p.Size())
	}
	var order []int
	p.ForEach(5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial ForEach order %v, want ascending", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("serial ForEach ran %d tasks, want 5", len(order))
	}
}

func TestSerialForEachDoesNotAllocate(t *testing.T) {
	p := Serial()
	var sink int
	fn := func(i int) { sink += i }
	allocs := testing.AllocsPerRun(20, func() {
		p.ForEach(16, fn)
	})
	if allocs != 0 {
		t.Fatalf("serial ForEach allocated %.1f times per run, want 0", allocs)
	}
}

func TestForEachScratchCoversAllTasksOncePerWorkerScratch(t *testing.T) {
	for _, p := range []*Pool{Serial(), New(1), New(4)} {
		var mu sync.Mutex
		seen := make(map[int]int)
		acquired, released := 0, 0
		acquire := func() interface{} {
			mu.Lock()
			acquired++
			mu.Unlock()
			return new(int)
		}
		release := func(sc interface{}) {
			mu.Lock()
			released++
			mu.Unlock()
		}
		p.ForEachScratch(50, acquire, release, func(sc interface{}, i int) {
			*(sc.(*int))++
			mu.Lock()
			seen[i]++
			mu.Unlock()
		})
		if len(seen) != 50 {
			t.Fatalf("pool size %d: covered %d of 50 tasks", p.Size(), len(seen))
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("pool size %d: task %d ran %d times", p.Size(), i, c)
			}
		}
		if acquired != released {
			t.Fatalf("pool size %d: %d acquires vs %d releases", p.Size(), acquired, released)
		}
		if acquired < 1 || acquired > p.Size()+1 {
			t.Fatalf("pool size %d: %d scratches acquired, want 1..%d", p.Size(), acquired, p.Size()+1)
		}
	}
}

func TestForEachScratchNested(t *testing.T) {
	// Nested fan-outs must not deadlock and must still cover every task.
	p := New(2)
	var count atomic.Int64
	p.ForEachScratch(8,
		func() interface{} { return nil },
		func(interface{}) {},
		func(_ interface{}, i int) {
			p.ForEachScratch(8,
				func() interface{} { return nil },
				func(interface{}) {},
				func(_ interface{}, j int) { count.Add(1) })
		})
	if got := count.Load(); got != 64 {
		t.Fatalf("nested ForEachScratch ran %d inner tasks, want 64", got)
	}
}
