package devmem

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestAllocFree(t *testing.T) {
	d := New(100)
	id, err := d.Alloc(60, KVCache)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if got := d.Used(); got != 60 {
		t.Errorf("Used = %d, want 60", got)
	}
	if got := d.UsedBy(KVCache); got != 60 {
		t.Errorf("UsedBy(KVCache) = %d, want 60", got)
	}
	if err := d.Free(id); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if got := d.Used(); got != 0 {
		t.Errorf("Used after free = %d", got)
	}
	if got := d.Peak(); got != 60 {
		t.Errorf("Peak = %d, want 60", got)
	}
}

func TestOutOfMemory(t *testing.T) {
	d := New(100)
	if _, err := d.Alloc(70, Weights); err != nil {
		t.Fatalf("first alloc: %v", err)
	}
	_, err := d.Alloc(40, KVCache)
	var oom *ErrOutOfMemory
	if !errors.As(err, &oom) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if oom.Free != 30 || oom.Requested != 40 {
		t.Errorf("oom = %+v", oom)
	}
}

func TestUnlimitedDevice(t *testing.T) {
	d := New(0)
	if _, err := d.Alloc(1<<40, KVCache); err != nil {
		t.Fatalf("unlimited device refused alloc: %v", err)
	}
	if got := d.Used(); got != 1<<40 {
		t.Errorf("Used on unlimited = %d, want %d", got, int64(1)<<40)
	}
}

func TestDoubleFree(t *testing.T) {
	d := New(0)
	id, _ := d.Alloc(10, Scratch)
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(id); err == nil {
		t.Error("double free not detected")
	}
}

func TestNegativeAlloc(t *testing.T) {
	d := New(0)
	if _, err := d.Alloc(-1, Scratch); err == nil {
		t.Error("negative alloc accepted")
	}
}

func TestBadCategory(t *testing.T) {
	d := New(0)
	if _, err := d.Alloc(1, Category(99)); err == nil {
		t.Error("bad category accepted")
	}
	if got := d.UsedBy(Category(99)); got != 0 {
		t.Errorf("UsedBy(bad) = %d", got)
	}
}

func TestTransferTime(t *testing.T) {
	d := New(0)
	got := d.TransferTime(1 << 30)
	if want := time.Second / hostToDevGiBps; got != want {
		t.Errorf("TransferTime(1GiB at %d GiB/s) = %v, want %v", hostToDevGiBps, got, want)
	}
	if d.TransferTime(0) != 0 {
		t.Error("TransferTime(0) != 0")
	}
}

func TestSnapshot(t *testing.T) {
	d := New(1000)
	d.Alloc(100, Weights)
	d.Alloc(200, KVCache)
	d.Alloc(50, Window)
	r := d.Snapshot()
	if r.Used != 350 || r.Capacity != 1000 {
		t.Errorf("snapshot = %+v", r)
	}
	if len(r.ByCat) != 3 {
		t.Fatalf("ByCat entries = %d, want 3", len(r.ByCat))
	}
	// Sorted by category order: Weights < KVCache < Window.
	if r.ByCat[0].Category != Weights || r.ByCat[2].Category != Window {
		t.Errorf("ByCat order wrong: %+v", r.ByCat)
	}
}

func TestCategoryString(t *testing.T) {
	if Weights.String() != "weights" || Window.String() != "window" {
		t.Error("category names wrong")
	}
	if Category(42).String() == "" {
		t.Error("unknown category name empty")
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	d := New(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id, err := d.Alloc(8, Scratch)
				if err != nil {
					t.Error(err)
					return
				}
				if err := d.Free(id); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := d.Used(); got != 0 {
		t.Errorf("Used after concurrent churn = %d", got)
	}
}

func TestAccountingInvariant(t *testing.T) {
	// Property: after any sequence of allocs and frees, Used equals the sum
	// of live allocation sizes and never exceeds Peak.
	f := func(sizes []uint16, freeMask []bool) bool {
		d := New(0)
		var live int64
		ids := make([]int, 0, len(sizes))
		for _, s := range sizes {
			id, err := d.Alloc(int64(s), KVCache)
			if err != nil {
				return false
			}
			ids = append(ids, id)
			live += int64(s)
		}
		for i, id := range ids {
			if i < len(freeMask) && freeMask[i] {
				if err := d.Free(id); err != nil {
					return false
				}
				live -= int64(sizes[i])
			}
		}
		return d.Used() == live && d.Peak() >= d.Used()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGB(t *testing.T) {
	if got := GB(2_500_000_000); got != 2.5 {
		t.Errorf("GB = %v", got)
	}
}
