// Package devmem simulates the accelerator ("GPU") memory that the paper's
// experiments account against. Nothing here allocates device memory, of
// course — the package is a strict bookkeeping model: components register
// the byte size of what they would keep resident on the device (model
// weights, the token window), the tracker enforces a capacity, and a
// bandwidth model converts transfer volumes into simulated host↔device
// transfer times. Nothing reads the free capacity to choose a plan: the
// query optimizer plans from the session alone.
//
// This is the substitution for the paper's NVIDIA L20 (48 GB): Figure 9
// plots quality against GB consumed and Figure 10's LMCache baseline is
// dominated by PCIe transfer time — both are pure arithmetic over the sizes
// recorded here.
package devmem

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Category labels a class of device-resident data. Eviction and reporting
// are broken down per category, mirroring the paper's memory accounting.
type Category int

const (
	// Weights is the model parameters (15.4 GB for the paper's Llama-3-8B).
	Weights Category = iota
	// KVCache is full-context key/value tensors kept on device.
	KVCache
	// Window is the sink+recent token window cached on device (§7.1).
	Window
	// BlockCache is always 0: no serving plan caches coarse blocks. It
	// stays only while benchmark/probes.go reads it (devmem.blockcache_mb).
	BlockCache
	// Scratch is transient activation memory.
	Scratch
	numCategories
)

var categoryNames = [...]string{"weights", "kv-cache", "window", "block-cache", "scratch"}

// String returns the lowercase name of the category.
func (c Category) String() string {
	if c < 0 || int(c) >= len(categoryNames) {
		return fmt.Sprintf("category(%d)", int(c))
	}
	return categoryNames[c]
}

// ErrOutOfMemory is returned when an allocation would exceed the device
// capacity.
type ErrOutOfMemory struct {
	Requested int64
	Free      int64
	Capacity  int64
}

func (e *ErrOutOfMemory) Error() string {
	return fmt.Sprintf("devmem: out of memory: requested %d bytes, %d free of %d",
		e.Requested, e.Free, e.Capacity)
}

// Device tracks simulated device memory. It is safe for concurrent use.
// The zero value is unusable; construct with New.
type Device struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	peak     int64
	byCat    [numCategories]int64
	nextID   int
	allocs   map[int]alloc
}

// hostToDevGiBps is the simulated host↔device bandwidth in GiB/s used by
// TransferTime. The paper's testbed is PCIe 4.0 x16 (~25 GiB/s usable).
const hostToDevGiBps = 25

type alloc struct {
	size int64
	cat  Category
}

// New returns a Device with the given capacity in bytes. A capacity of 0
// means unlimited (accounting only).
func New(capacity int64) *Device {
	return &Device{
		capacity: capacity,
		allocs:   make(map[int]alloc),
	}
}

// Alloc reserves size bytes in the given category and returns a handle for
// Free. It returns *ErrOutOfMemory if the reservation would exceed capacity.
func (d *Device) Alloc(size int64, cat Category) (int, error) {
	if size < 0 {
		return 0, fmt.Errorf("devmem: negative allocation %d", size)
	}
	if cat < 0 || cat >= numCategories {
		return 0, fmt.Errorf("devmem: unknown category %d", cat)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.capacity > 0 && d.used+size > d.capacity {
		return 0, &ErrOutOfMemory{Requested: size, Free: d.capacity - d.used, Capacity: d.capacity}
	}
	d.nextID++
	id := d.nextID
	d.allocs[id] = alloc{size: size, cat: cat}
	d.used += size
	d.byCat[cat] += size
	if d.used > d.peak {
		d.peak = d.used
	}
	return id, nil
}

// Free releases a handle returned by Alloc. Freeing an unknown handle is an
// error so leaks and double-frees surface in tests.
func (d *Device) Free(id int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	a, ok := d.allocs[id]
	if !ok {
		return fmt.Errorf("devmem: free of unknown handle %d", id)
	}
	delete(d.allocs, id)
	d.used -= a.size
	d.byCat[a.cat] -= a.size
	return nil
}

// Used returns the bytes currently allocated.
func (d *Device) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// Peak returns the high-water mark of allocated bytes.
func (d *Device) Peak() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peak
}

// UsedBy returns the bytes allocated in the given category.
func (d *Device) UsedBy(cat Category) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cat < 0 || cat >= numCategories {
		return 0
	}
	return d.byCat[cat]
}

// TransferTime returns the simulated time to move n bytes across the
// host↔device link at hostToDevGiBps. It performs no sleeping; callers add
// it to reported latencies.
func (d *Device) TransferTime(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	secs := float64(n) / (hostToDevGiBps * (1 << 30))
	return time.Duration(secs * float64(time.Second))
}

// Report is a snapshot of the device's usage, sorted by category for stable
// rendering in experiment output.
type Report struct {
	Capacity int64
	Used     int64
	Peak     int64
	ByCat    []CatUsage
}

// CatUsage is one category's usage in a Report.
type CatUsage struct {
	Category Category
	Bytes    int64
}

// Snapshot returns the current usage breakdown.
func (d *Device) Snapshot() Report {
	d.mu.Lock()
	defer d.mu.Unlock()
	r := Report{Capacity: d.capacity, Used: d.used, Peak: d.peak}
	for c := Category(0); c < numCategories; c++ {
		if d.byCat[c] != 0 {
			r.ByCat = append(r.ByCat, CatUsage{Category: c, Bytes: d.byCat[c]})
		}
	}
	sort.Slice(r.ByCat, func(i, j int) bool { return r.ByCat[i].Category < r.ByCat[j].Category })
	return r
}

// GB formats a byte count as decimal gigabytes, matching the units used in
// the paper's figures.
func GB(n int64) float64 { return float64(n) / 1e9 }
