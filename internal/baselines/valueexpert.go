// Package baselines implements Table 5's ValueExpert baseline on DrGPUM's
// instrumentation interface: the value-pattern profiler of Zhou et al.
// (ASPLOS 2022), which reports value-level redundancies and of DrGPUM's
// patterns only lets a user reason about unused allocations. Table 5's
// Compute Sanitizer baseline is internal/memcheck; engine.ModeBaselines
// runs both on one device.
package baselines

import (
	"fmt"
	"sort"

	"drgpum/internal/gpu"
	"drgpum/internal/pattern"
)

// valueObject is ValueExpert's per-allocation value bookkeeping.
type valueObject struct {
	rng gpu.Range
	// lastValue remembers the last value stored at each address.
	lastValue map[gpu.DevicePtr]uint64
	// distinct counts distinct stored values (capped; the tool only needs
	// "single value" vs "many").
	values map[uint64]struct{}
	// counters.
	stores       uint64
	silentStores uint64
	loads        uint64
	accessed     bool
}

// ValueObjectReport summarizes ValueExpert's view of one allocation.
type ValueObjectReport struct {
	Range gpu.Range
	// Stores/Loads are the observed typed accesses.
	Stores uint64
	Loads  uint64
	// SilentStores counts stores that rewrote the value already present at
	// the address — the tool's flagship redundancy pattern.
	SilentStores uint64
	// SingleValued reports whether every store wrote the same value (the
	// "data value pattern" ValueExpert reports for e.g. zero-filled data).
	SingleValued bool
	// Accessed reports whether the allocation was touched at all; an
	// allocation with no value activity lets the user reason about unused
	// allocations from the profile output (Table 5 footnote).
	Accessed bool
}

// ValueExpert is the value-pattern-profiler baseline. It consumes the same
// instrumented access stream DrGPUM does but asks value-level questions:
// which stores are silent, which data is single-valued, which allocations
// carry no values at all. Register it as a device hook and run the device
// at PatchFull.
type ValueExpert struct {
	objs []*valueObject // sorted by base address
}

var _ gpu.Hook = (*ValueExpert)(nil)

// NewValueExpert creates an empty profiler.
func NewValueExpert() *ValueExpert { return &ValueExpert{} }

// OnAPI implements gpu.Hook: it tracks allocation ranges so accesses can be
// attributed.
func (v *ValueExpert) OnAPI(rec *gpu.APIRecord) {
	switch rec.Kind {
	case gpu.APIMalloc:
		if rec.Custom {
			return
		}
		o := &valueObject{
			rng:       gpu.Range{Addr: rec.Ptr, Size: rec.Size},
			lastValue: make(map[gpu.DevicePtr]uint64),
			values:    make(map[uint64]struct{}),
		}
		i := sort.Search(len(v.objs), func(i int) bool { return v.objs[i].rng.Addr > o.rng.Addr })
		v.objs = append(v.objs, nil)
		copy(v.objs[i+1:], v.objs[i:])
		v.objs[i] = o
	case gpu.APIMemcpy:
		// A copy into an allocation counts as value activity (the tool
		// monitors CPU-GPU transfers for duplicate-copy analysis).
		for _, r := range rec.Writes {
			if o := v.lookup(r.Addr); o != nil {
				o.accessed = true
			}
		}
		for _, r := range rec.Reads {
			if o := v.lookup(r.Addr); o != nil {
				o.accessed = true
			}
		}
	case gpu.APIMemset:
		if o := v.lookup(rec.Ptr); o != nil {
			o.accessed = true
		}
	}
}

// lookup finds the tracked allocation containing addr. Frees are ignored —
// ValueExpert reports per-allocation value histories over the whole run.
func (v *ValueExpert) lookup(addr gpu.DevicePtr) *valueObject {
	i := sort.Search(len(v.objs), func(i int) bool { return v.objs[i].rng.Addr > addr })
	if i == 0 {
		return nil
	}
	o := v.objs[i-1]
	if o.rng.Contains(addr) {
		return o
	}
	return nil
}

// OnAccessBatch implements gpu.Hook: the value analysis proper.
func (v *ValueExpert) OnAccessBatch(_ *gpu.APIRecord, batch []gpu.MemAccess) {
	for _, a := range batch {
		if a.Space != gpu.SpaceGlobal {
			continue
		}
		o := v.lookup(a.Addr)
		if o == nil {
			continue
		}
		o.accessed = true
		if a.Kind == gpu.AccessRead {
			o.loads++
			continue
		}
		o.stores++
		if !a.HasValue {
			continue
		}
		if last, ok := o.lastValue[a.Addr]; ok && last == a.Value {
			o.silentStores++
		}
		o.lastValue[a.Addr] = a.Value
		if len(o.values) < 4 {
			o.values[a.Value] = struct{}{}
		}
	}
}

// Reports returns the per-allocation summaries in address order.
func (v *ValueExpert) Reports() []ValueObjectReport {
	out := make([]ValueObjectReport, 0, len(v.objs))
	for _, o := range v.objs {
		out = append(out, ValueObjectReport{
			Range:        o.rng,
			Stores:       o.stores,
			Loads:        o.loads,
			SilentStores: o.silentStores,
			SingleValued: o.stores > 0 && len(o.values) == 1,
			Accessed:     o.accessed,
		})
	}
	return out
}

// DetectedPatterns maps ValueExpert's output onto DrGPUM's pattern space.
// Per the paper's Table 5, the only overlap is unused allocations — "users
// can reason about them with ease based on ValueExpert's profiling output"
// (an allocation with no value activity) — and only when such an
// allocation exists.
func (v *ValueExpert) DetectedPatterns() []pattern.Pattern {
	for _, o := range v.objs {
		if !o.accessed {
			return []pattern.Pattern{pattern.UnusedAllocation}
		}
	}
	return nil
}

// Summary renders a one-line report.
func (v *ValueExpert) Summary() string {
	var silent, unaccessed uint64
	for _, o := range v.objs {
		silent += o.silentStores
		if !o.accessed {
			unaccessed++
		}
	}
	return fmt.Sprintf("valueexpert: %d allocation(s), %d silent store(s), %d allocation(s) with no value activity",
		len(v.objs), silent, unaccessed)
}
