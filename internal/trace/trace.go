// Package trace builds the timestamp-augmented object-level memory access
// trace at the heart of DrGPUM (paper §5.1, Figure 2).
//
// The trace correlates every GPU API invocation with the data objects it
// touches. Objects are created by intercepting allocation APIs, retired by
// interception of deallocation APIs, and attributed with accesses when copy,
// set and kernel-launch APIs touch their address ranges. Each API carries a
// host call path and, after dependency analysis, a topological timestamp.
package trace

import (
	"fmt"

	"drgpum/internal/callpath"
	"drgpum/internal/costmodel"
	"drgpum/internal/gpu"
)

// ObjectID identifies a data object within one trace. IDs are dense and
// ordered by allocation time.
type ObjectID uint32

// NoAPI marks an object-lifetime endpoint that never happened (e.g. FreeAPI
// of a leaked object).
const NoAPI = int64(-1)

// DefaultElemSize is the element width in bytes of an object the
// application does not annotate.
const DefaultElemSize = 4

// AccessEvent records that one GPU API touched an object. At most one event
// exists per (object, API) pair; Read and Write flags merge multiple touches.
type AccessEvent struct {
	// API is the invocation index of the accessing GPU API.
	API uint64
	// APIKind is the class of the accessing API (copy, set or kernel).
	APIKind gpu.APIKind
	// Read reports whether the API read the object.
	Read bool
	// Write reports whether the API wrote the object.
	Write bool
}

// Object is one device data object: a single allocation's lifetime plus the
// ordered list of GPU APIs that accessed it.
type Object struct {
	// ID is the dense object identifier.
	ID ObjectID
	// Ptr is the base device address (valid during the object's lifetime;
	// addresses are reused after free).
	Ptr gpu.DevicePtr
	// Size is the requested allocation size in bytes.
	Size uint64
	// ElemSize is the element width in bytes used by intra-object analysis
	// bitmaps: DefaultElemSize unless the application annotates it. Read
	// it through ElemWidth.
	ElemSize uint32
	// Label is the application-facing name (e.g. "d_data_out1"). Empty if
	// the application did not annotate the allocation; reports then fall
	// back to the allocation call path.
	Label string
	// AllocAPI is the invocation index of the allocating API.
	AllocAPI uint64
	// FreeAPI is the invocation index of the deallocating API, or NoAPI if
	// the object was never freed (a leak, by Definition 3.5).
	FreeAPI int64
	// AllocPath and FreePath are the host call paths of the lifetime APIs.
	AllocPath callpath.PathID
	FreePath  callpath.PathID
	// Accesses lists the APIs that touched this object in invocation order.
	Accesses []AccessEvent
	// Cost aggregates the memory-hierarchy cost model's view of this
	// object's kernel traffic over the whole run (zero when the model is
	// disabled). It is accumulated at OnAPI arrival — before any window
	// retirement — so it survives streaming compaction, and its counters
	// are commutative sums, so every profiling mode folds the same values.
	Cost costmodel.ObjectCost
	// CostByKernel splits Cost by kernel name, one entry per kernel in the
	// order of their first costed touch, so the uncoalesced-access
	// detector can attribute waste to the dominant kernel. An object sees
	// few kernels, so a search of the slice finds a kernel's entry. Nil
	// until the first costed kernel touch.
	CostByKernel []KernelCost
	// Pool marks objects allocated through a custom memory-pool API rather
	// than a raw device allocation (paper §5.4).
	Pool bool
	// PoolSegment marks raw device allocations that back a memory pool.
	// Segments are carriers, not application data objects: detectors and
	// the memory timeline skip them, and their address ranges are delisted
	// from the memory map so kernel accesses attribute to pool tensors.
	PoolSegment bool
}

// Range returns the object's address interval.
func (o *Object) Range() gpu.Range { return gpu.Range{Addr: o.Ptr, Size: o.Size} }

// Freed reports whether the object was deallocated before end of execution.
func (o *Object) Freed() bool { return o.FreeAPI != NoAPI }

// FirstAccess returns the first access event, or nil if the object was never
// accessed by any GPU API (Definition 3.4, unused allocation).
func (o *Object) FirstAccess() *AccessEvent {
	if len(o.Accesses) == 0 {
		return nil
	}
	return &o.Accesses[0]
}

// LastAccess returns the final access event, or nil if never accessed.
func (o *Object) LastAccess() *AccessEvent {
	if len(o.Accesses) == 0 {
		return nil
	}
	return &o.Accesses[len(o.Accesses)-1]
}

// KernelCost is one kernel's share of an object's cost-model attribution.
type KernelCost struct {
	Kernel string
	Cost   costmodel.ObjectCost
}

// AddKernelCost adds c to kernel's entry of CostByKernel, appending the
// entry at the kernel's first costed touch.
func (o *Object) AddKernelCost(kernel string, c costmodel.ObjectCost) {
	for i := range o.CostByKernel {
		if o.CostByKernel[i].Kernel == kernel {
			o.CostByKernel[i].Cost.Add(c)
			return
		}
	}
	o.CostByKernel = append(o.CostByKernel, KernelCost{Kernel: kernel, Cost: c})
}

// ElemWidth returns ElemSize, or DefaultElemSize when it is 0: a saved
// profile omits the field when it is 0, and the file is untrusted input.
func (o *Object) ElemWidth() uint64 {
	if o.ElemSize == 0 {
		return DefaultElemSize
	}
	return uint64(o.ElemSize)
}

// Elems returns the number of elements the object holds under its element
// size (rounding up so a trailing partial element still counts).
func (o *Object) Elems() int {
	es := o.ElemWidth()
	return int((o.Size + es - 1) / es)
}

// DisplayName returns the label if present, else a synthesized name.
func (o *Object) DisplayName() string {
	if o.Label != "" {
		return o.Label
	}
	return fmt.Sprintf("object#%d", o.ID)
}

// CompactAccesses trims the event list down to the first and last access.
// The streaming window manager calls this when a window closes: every
// analysis that consumes intermediate events (dependency edges, idle-window
// detection, intra-object folding) has already observed them at arrival, and
// the detectors that run at Finish (redundancy, lifetime endpoints, API-mix
// stats, the advisor) only need the endpoints. FirstAccess/LastAccess and
// the len>0 "was accessed" predicate are preserved exactly.
func (o *Object) CompactAccesses() {
	n := len(o.Accesses)
	if n <= 2 {
		return
	}
	first, last := o.Accesses[0], o.Accesses[n-1]
	if cap(o.Accesses) > 8 {
		// Reallocate so the retired backing array is actually collectable.
		o.Accesses = []AccessEvent{first, last}
		return
	}
	o.Accesses = append(o.Accesses[:0], first, last)
}

// touch merges an access by API into the object's event list.
func (o *Object) touch(api uint64, kind gpu.APIKind, read, write bool) {
	if n := len(o.Accesses); n > 0 && o.Accesses[n-1].API == api {
		o.Accesses[n-1].Read = o.Accesses[n-1].Read || read
		o.Accesses[n-1].Write = o.Accesses[n-1].Write || write
		return
	}
	o.Accesses = append(o.Accesses, AccessEvent{API: api, APIKind: kind, Read: read, Write: write})
}

// APIInfo augments a device APIRecord with profiler-side attribution.
type APIInfo struct {
	// Rec is the raw device record.
	Rec *gpu.APIRecord
	// Path is the host call path of the invocation.
	Path callpath.PathID
	// Topo is the topological timestamp assigned by dependency analysis
	// (paper §5.3). For single-stream programs it equals the invocation
	// order.
	Topo uint64
	// ReadObjs and WriteObjs are the objects this API read and wrote.
	ReadObjs  []ObjectID
	WriteObjs []ObjectID
	// Obj is the subject object of a Malloc/Free (not an access, per the
	// paper's footnote: lifetime APIs do not "access" their object).
	Obj ObjectID
	// HasObj reports whether Obj is valid.
	HasObj bool
}

// Label renders the paper's Figure 7 style name, e.g. "ALLOC(0, 2)" or
// "KERL(1, 0)".
func (a *APIInfo) Label() string {
	return fmt.Sprintf("%s(%d, %d)", a.Rec.Kind, a.Rec.Stream, a.Rec.SeqInStream)
}

// Retire drops the per-invocation payload that no analysis reads after the
// API's window has closed: raw access ranges, fault lists, launch geometry
// and the per-API object touch sets. The identity fields every late consumer
// uses (index, kind, name, stream position, pointer, size) are kept in a
// fresh compact record so the original — which may anchor large Reads/Writes
// slices — becomes collectable.
func (a *APIInfo) Retire() {
	a.Rec = &gpu.APIRecord{
		Index:       a.Rec.Index,
		Kind:        a.Rec.Kind,
		Name:        a.Rec.Name,
		Stream:      a.Rec.Stream,
		SeqInStream: a.Rec.SeqInStream,
		Ptr:         a.Rec.Ptr,
		Size:        a.Rec.Size,
		Custom:      a.Rec.Custom,
	}
	a.ReadObjs = nil
	a.WriteObjs = nil
}

// Trace is the complete object-level memory access trace of one execution.
type Trace struct {
	// APIs holds every intercepted GPU API in invocation order; the slice
	// index equals APIRecord.Index.
	APIs []*APIInfo
	// Objects holds every data object in allocation order; the slice index
	// equals the ObjectID.
	Objects []*Object
	// Unwinder resolves the call-path IDs stored on APIs and objects. For
	// live profiles it is the collector's *callpath.Unwinder; for profiles
	// loaded from disk it is a *callpath.Frozen over the saved frames.
	Unwinder callpath.Resolver
	// Streamed reports that closed-window APIs and objects were retired
	// (Retire/CompactAccesses): per-invocation payloads are gone and access
	// lists hold only endpoints. Consumers that need the full history — the
	// profile serializer foremost — must refuse streamed traces.
	Streamed bool
}

// Object returns the object with the given ID.
func (t *Trace) Object(id ObjectID) *Object { return t.Objects[id] }

// API returns the API info at the given invocation index.
func (t *Trace) API(index uint64) *APIInfo { return t.APIs[index] }

// TopoOf returns the topological timestamp of the API at index.
func (t *Trace) TopoOf(index uint64) uint64 { return t.APIs[index].Topo }

// Intervening returns the number of topological levels strictly between two
// API invocations. Every level contains at least one GPU API, so for
// single-stream traces this is exactly the count of APIs executed between
// the two (the quantity all of §3.1's definitions are phrased in).
func (t *Trace) Intervening(a, b uint64) int {
	ta, tb := t.APIs[a].Topo, t.APIs[b].Topo
	if tb < ta {
		ta, tb = tb, ta
	}
	if tb-ta <= 1 {
		return 0
	}
	return int(tb - ta - 1)
}

// LiveBytesTimelineTo returns, for each topological timestamp 0..maxTopo,
// the number of device bytes live after all APIs at that timestamp
// executed. This is the curve the offline analyzer mines for memory peaks
// (paper §4). The caller supplies the final timestamp: the dependency pass
// tracks it as it assigns timestamps, so the curve needs no rescan of the
// APIs.
func (t *Trace) LiveBytesTimelineTo(maxTopo uint64) []uint64 {
	deltas := make([]int64, maxTopo+2)
	for _, o := range t.Objects {
		if o.PoolSegment {
			continue // pool reservations are accounted by their tensors
		}
		allocT := t.APIs[o.AllocAPI].Topo
		deltas[allocT] += int64(o.Size)
		if o.Freed() {
			freeT := t.APIs[o.FreeAPI].Topo
			deltas[freeT] -= int64(o.Size)
		}
	}
	out := make([]uint64, maxTopo+1)
	var cur int64
	for ts := uint64(0); ts <= maxTopo; ts++ {
		cur += deltas[ts]
		out[ts] = uint64(cur)
	}
	return out
}
