// Package baselines implements Table 5's ValueExpert baseline on DrGPUM's
// instrumentation interface: the value-pattern profiler of Zhou et al.
// (ASPLOS 2022), which reports value-level redundancies and of DrGPUM's
// patterns only lets a user reason about unused allocations. The analog
// keeps only what that column reads, one accessed bit per live allocation.
// Table 5's Compute Sanitizer baseline is internal/memcheck;
// engine.ModeBaselines runs both on one device.
package baselines

import (
	"slices"
	"sort"

	"drgpum/internal/gpu"
	"drgpum/internal/pattern"
)

// liveObject is one live driver allocation and whether anything touched it.
type liveObject struct {
	rng      gpu.Range
	accessed bool
}

// ValueExpert is the value-pattern-profiler baseline. It consumes the same
// instrumented access stream DrGPUM does and keeps, per allocation, only
// whether it saw any value activity: an allocation with none lets the user
// reason about an unused allocation. Register it as a device hook and run
// the device at PatchFull.
type ValueExpert struct {
	// objs holds the live allocations, sorted by base address. Live driver
	// allocations are disjoint, so an address lies in at most one of them.
	objs []liveObject
	// unused records that an allocation was freed without being touched.
	unused bool
}

var _ gpu.Hook = (*ValueExpert)(nil)

// NewValueExpert creates an empty profiler.
func NewValueExpert() *ValueExpert { return &ValueExpert{} }

// OnAPI implements gpu.Hook: it tracks the live driver allocations, judges
// each one at its free, and marks the allocations memsets and copies touch.
func (v *ValueExpert) OnAPI(rec *gpu.APIRecord) {
	if rec.Custom {
		// A custom memory API's pool tensors are invisible to the tool.
		return
	}
	switch rec.Kind {
	case gpu.APIMalloc:
		o := liveObject{rng: gpu.Range{Addr: rec.Ptr, Size: rec.Size}}
		v.objs = slices.Insert(v.objs, v.search(rec.Ptr), o)
	case gpu.APIFree:
		if i := v.search(rec.Ptr) - 1; i >= 0 && v.objs[i].rng.Addr == rec.Ptr {
			v.unused = v.unused || !v.objs[i].accessed
			v.objs = slices.Delete(v.objs, i, i+1)
		}
	case gpu.APIMemcpy:
		// A copy into an allocation counts as value activity (the tool
		// monitors CPU-GPU transfers for duplicate-copy analysis).
		for _, r := range rec.Writes {
			v.touch(r.Addr)
		}
		for _, r := range rec.Reads {
			v.touch(r.Addr)
		}
	case gpu.APIMemset:
		v.touch(rec.Ptr)
	}
}

// search returns the number of live allocations based at or below addr.
func (v *ValueExpert) search(addr gpu.DevicePtr) int {
	return sort.Search(len(v.objs), func(i int) bool { return v.objs[i].rng.Addr > addr })
}

// touch marks the live allocation containing addr, if any, accessed.
func (v *ValueExpert) touch(addr gpu.DevicePtr) {
	if i := v.search(addr) - 1; i >= 0 && v.objs[i].rng.Contains(addr) {
		v.objs[i].accessed = true
	}
}

// OnAccessBatch implements gpu.Hook: a kernel's global loads and stores
// touch their allocations; shared-memory accesses touch none.
func (v *ValueExpert) OnAccessBatch(_ *gpu.APIRecord, batch []gpu.MemAccess) {
	for _, a := range batch {
		if a.Space == gpu.SpaceGlobal {
			v.touch(a.Addr)
		}
	}
}

// DetectedPatterns maps ValueExpert's output onto DrGPUM's pattern space.
// Per the paper's Table 5, the only overlap is unused allocations — "users
// can reason about them with ease based on ValueExpert's profiling output"
// (an allocation with no value activity) — and only when such an
// allocation exists, freed or still live.
func (v *ValueExpert) DetectedPatterns() []pattern.Pattern {
	if v.unused || slices.ContainsFunc(v.objs, func(o liveObject) bool { return !o.accessed }) {
		return []pattern.Pattern{pattern.UnusedAllocation}
	}
	return nil
}
