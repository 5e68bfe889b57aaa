package gpu

import (
	"errors"
	"fmt"

	"drgpum/internal/costmodel"
)

// ErrBadCopy is returned when a memory copy or set touches addresses outside
// a live allocation.
var ErrBadCopy = errors.New("gpu: copy/set out of bounds")

// Fault records an out-of-bounds kernel access. Faults do not abort the
// simulated kernel (matching how silent corruption behaves on real devices
// without compute-sanitizer); they are surfaced on the APIRecord so
// memcheck-style tools can report them.
type Fault struct {
	Addr DevicePtr
	Size uint32
	Kind AccessKind
}

// APIRecord describes one completed GPU API invocation. It is the atom the
// profiler's collector consumes: the paper's object-level analysis is defined
// entirely over the ordered stream of these records.
type APIRecord struct {
	// Index is the global invocation index (0-based, order of invocation).
	Index uint64
	// Kind is the API class.
	Kind APIKind
	// Name is the kernel name for APIKernel, or the API name otherwise.
	Name string
	// Stream is the stream ID the API executed on. Host-synchronous APIs
	// (Malloc, Free and the synchronous copy/set forms) report stream 0.
	Stream int
	// SeqInStream is the per-(stream, kind) sequence number, used for the
	// paper's Figure 7 labels such as ALLOC(0, 2) or KERL(1, 0).
	SeqInStream int

	// Ptr/Size describe the target of Malloc, Free and Memset.
	Ptr  DevicePtr
	Size uint64
	// Dst/Src/CopyKind describe a Memcpy.
	Dst      DevicePtr
	Src      DevicePtr
	CopyKind MemcpyKind
	// Grid/Block are the launch dimensions of a kernel.
	Grid  Dim3
	Block Dim3

	// Reads and Writes are the device address ranges this API read and
	// wrote. For copies and sets they are exact (the Sanitizer API provides
	// these ranges directly, paper §5.5 footnote); for kernels they are at
	// data-object resolution, produced by the hit-flag scheme of Figure 5.
	Reads  []Range
	Writes []Range

	// Instrumented reports whether per-instruction accesses were recorded
	// for this kernel (PatchFull and not filtered out by sampling or
	// whitelist).
	Instrumented bool
	// Cost is the memory-hierarchy cost model's record for a kernel
	// launch (nil when the model is disabled, for non-kernel APIs, in
	// host-trace mode, or when the kernel touched no live object). Entry
	// bases are hit-table range addresses; the collector resolves them to
	// data objects.
	Cost *costmodel.KernelCost
	// Custom marks records synthesized by a custom memory API (e.g. a
	// caching-pool allocation, paper §5.4) rather than a raw device API.
	Custom bool
	// Faults lists out-of-bounds accesses observed during a kernel.
	Faults []Fault

	// StartCycle and EndCycle are simulated-clock bounds of the operation.
	StartCycle uint64
	EndCycle   uint64
}

// Hook observes device activity. Hooks are the simulator's analog of the
// NVIDIA Sanitizer API callback registration: OnAPI corresponds to API-level
// interception and OnAccessBatch to per-instruction patching.
type Hook interface {
	// OnAPI is invoked synchronously on the calling goroutine immediately
	// after a GPU API completes, so implementations may unwind the host call
	// path with runtime.Callers.
	OnAPI(rec *APIRecord)
	// OnAccessBatch delivers a batch of memory accesses executed by an
	// instrumented kernel. The slice is reused; implementations must copy
	// what they keep. rec is the in-progress kernel record (Index, Name and
	// launch fields are valid; Reads/Writes/EndCycle are not final yet).
	OnAccessBatch(rec *APIRecord, batch []MemAccess)
}

// ObjectIDMode selects how kernels identify which data objects they touch
// for object-level analysis (paper §5.5).
type ObjectIDMode uint8

const (
	// ObjectIDHitFlags is the paper's optimized scheme (Figure 5): a snapshot
	// of the memory map is "copied to the device" at each kernel launch, each
	// access flips a per-object hit flag via binary search, and only the
	// flags travel back to the host.
	ObjectIDHitFlags ObjectIDMode = iota
	// ObjectIDHostTrace is the naive baseline the paper measured at up to
	// 1170x overhead on Darknet: every access is shipped to the host, which
	// performs the object lookup there.
	ObjectIDHostTrace
)

// String names the mode.
func (m ObjectIDMode) String() string {
	if m == ObjectIDHostTrace {
		return "host-trace"
	}
	return "hit-flags"
}

// accessBatchSize is the simulated GPU-side buffer capacity, in records,
// before a flush to the host is forced.
const accessBatchSize = 4096

// Device is a simulated GPU. It is not safe for concurrent use; the
// simulator models stream concurrency with per-stream clocks rather than
// goroutines so that profiles are deterministic.
type Device struct {
	spec  DeviceSpec
	alloc *Allocator

	streams       []*Stream
	defaultStream *Stream

	hooks      []Hook
	patch      PatchLevel
	objectID   ObjectIDMode
	instrument func(kernel string, launch uint64) bool
	liveRanges func() []Range

	apiIndex     uint64
	seqCounters  map[seqKey]int
	kernelLaunch map[string]uint64 // per-kernel launch counts (for sampling)

	batch []MemAccess

	// pipe, when non-nil, routes flushed access batches to a consumer
	// goroutine instead of running hooks inline (see pipeline.go).
	pipe      *accessPipeline
	pipeStats PipelineStats

	// costTracker, when non-nil, runs the memory-hierarchy cost model
	// configured by costSpec: one tracker, reset at every launch, holds
	// the per-launch L1 and the persistent L2. It is only touched on the
	// launching goroutine (kernel bodies always execute inline), which
	// keeps the model byte-identical across the sequential/pipelined/
	// streaming profiling modes.
	costSpec    costmodel.Spec
	costTracker *costmodel.Tracker
}

type seqKey struct {
	stream int
	kind   APIKind
}

// Stream is an in-order execution queue with its own simulated clock.
type Stream struct {
	id    int
	clock uint64
}

// ID returns the stream identifier (0 is the default stream).
func (s *Stream) ID() int { return s.id }

// NewDevice creates a device with the given spec.
func NewDevice(spec DeviceSpec) *Device {
	d := &Device{
		spec:         spec,
		alloc:        NewAllocator(spec.MemoryCapacity, spec.Alignment),
		seqCounters:  make(map[seqKey]int),
		kernelLaunch: make(map[string]uint64),
		batch:        make([]MemAccess, 0, accessBatchSize),
	}
	d.defaultStream = &Stream{id: 0}
	d.streams = []*Stream{d.defaultStream}
	return d
}

// Spec returns the device configuration.
func (d *Device) Spec() DeviceSpec { return d.spec }

// Allocator exposes the device allocator for statistics queries.
func (d *Device) Allocator() *Allocator { return d.alloc }

// MemStats returns the allocator accounting snapshot; the Peak field is what
// the paper's Table 4 "peak memory reduction" experiments compare.
func (d *Device) MemStats() AllocStats { return d.alloc.Stats() }

// CreateStream creates a new asynchronous stream.
func (d *Device) CreateStream() *Stream {
	s := &Stream{id: len(d.streams)}
	d.streams = append(d.streams, s)
	return s
}

// DefaultStream returns stream 0.
func (d *Device) DefaultStream() *Stream { return d.defaultStream }

// AddHook registers an observer. Hooks fire in registration order.
func (d *Device) AddHook(h Hook) { d.hooks = append(d.hooks, h) }

// SetPatchLevel selects the instrumentation level for subsequent operations.
func (d *Device) SetPatchLevel(p PatchLevel) { d.patch = p }

// PatchLevel returns the current instrumentation level.
func (d *Device) PatchLevel() PatchLevel { return d.patch }

// SetObjectIDMode selects the object identification scheme (paper §5.5).
func (d *Device) SetObjectIDMode(m ObjectIDMode) { d.objectID = m }

// SetInstrumentFilter installs a predicate deciding whether a particular
// kernel launch gets per-instruction instrumentation at PatchFull. launch is
// the 0-based launch count of that kernel name. A nil filter instruments
// every launch. Object-level analysis is unaffected: the paper monitors all
// GPU APIs without sampling (Figure 6 caption).
func (d *Device) SetInstrumentFilter(f func(kernel string, launch uint64) bool) {
	d.instrument = f
}

// SetCostModel enables the memory-hierarchy cost model (DESIGN.md §4.10)
// for subsequent kernel launches: per-warp coalescing over each launch's
// hit table, a per-launch L1 and a persistent L2, parameterized by spec.
// Kernel records gain a Cost field; the simulated clock is unchanged (the
// model is an analysis overlay, not a timing change). A zero-valued spec
// derives the defaults for this device via costmodel.SpecFor.
//
// SetCostModel panics, leaving the device unchanged, on a spec whose
// geometry the model cannot represent exactly: SectorBytes, LineBytes,
// L1Sets and L2Sets must be powers of two, LineBytes at least
// SectorBytes, and WarpSize at least 1.
func (d *Device) SetCostModel(spec costmodel.Spec) {
	if spec.SectorBytes == 0 {
		spec = costmodel.SpecFor(d.spec.Name, d.spec.GlobalLatency, d.spec.CopyBytesPerCycle,
			d.spec.MallocCycles, d.spec.FreeCycles)
	}
	d.costTracker = costmodel.NewTracker(spec, costmodel.NewCache(spec.L2Sets, spec.L2Ways), 0)
	d.costSpec = spec
}

// DisableCostModel turns the cost model off for subsequent launches.
func (d *Device) DisableCostModel() { d.costTracker = nil }

// CostModelSpec returns the active cost-model parameters and whether the
// model is enabled.
func (d *Device) CostModelSpec() (costmodel.Spec, bool) { return d.costSpec, d.costTracker != nil }

// SetLiveRangesProvider overrides the source of the live-object table used
// by the kernel hit-flag scheme. By default the allocator's live blocks are
// used; a profiler integrating a custom memory pool substitutes its own
// memory map M so kernel accesses attribute to pool tensors rather than to
// the pool's backing segments (paper §5.4).
func (d *Device) SetLiveRangesProvider(f func() []Range) { d.liveRanges = f }

// CustomAlloc surfaces an allocation performed by a custom memory API (a
// pool tensor request). It emits an allocation-kind API record without
// touching the device allocator. The cost models the pool's fast path,
// which is the reason frameworks use pools instead of cudaMalloc.
func (d *Device) CustomAlloc(name string, ptr DevicePtr, size uint64) {
	rec := d.newRecord(APIMalloc, name, 0)
	rec.Ptr = ptr
	rec.Size = size
	rec.Custom = true
	rec.StartCycle, rec.EndCycle = d.hostSyncOp(d.spec.MallocCycles / 100)
	d.emit(rec)
}

// CustomFree surfaces a deallocation performed by a custom memory API.
func (d *Device) CustomFree(name string, ptr DevicePtr) {
	rec := d.newRecord(APIFree, name, 0)
	rec.Ptr = ptr
	rec.Custom = true
	rec.StartCycle, rec.EndCycle = d.hostSyncOp(d.spec.FreeCycles / 100)
	d.emit(rec)
}

// Elapsed returns the simulated time: the furthest-ahead stream clock.
func (d *Device) Elapsed() uint64 {
	var maxClock uint64
	for _, s := range d.streams {
		if s.clock > maxClock {
			maxClock = s.clock
		}
	}
	return maxClock
}

// Synchronize joins all streams: every stream clock advances to the maximum
// (the cudaDeviceSynchronize analog).
func (d *Device) Synchronize() {
	m := d.Elapsed()
	for _, s := range d.streams {
		s.clock = m
	}
}

// newRecord initializes a record for the next API invocation.
func (d *Device) newRecord(kind APIKind, name string, stream int) *APIRecord {
	k := seqKey{stream: stream, kind: kind}
	seq := d.seqCounters[k]
	d.seqCounters[k] = seq + 1
	rec := &APIRecord{
		Index:       d.apiIndex,
		Kind:        kind,
		Name:        name,
		Stream:      stream,
		SeqInStream: seq,
	}
	d.apiIndex++
	return rec
}

// emit finalizes a record and notifies hooks.
func (d *Device) emit(rec *APIRecord) {
	if d.patch == PatchNone {
		return
	}
	for _, h := range d.hooks {
		h.OnAPI(rec)
	}
}

// hostSyncOp times a device-wide synchronous operation of the given cost:
// it starts when all streams have drained and advances every stream past it
// (cudaMalloc/cudaFree/synchronous copies synchronize the device).
func (d *Device) hostSyncOp(cost uint64) (start, end uint64) {
	start = d.Elapsed()
	end = start + cost
	for _, s := range d.streams {
		s.clock = end
	}
	return start, end
}

// streamOp times an asynchronous operation on one stream.
func (d *Device) streamOp(s *Stream, cost uint64) (start, end uint64) {
	start = s.clock
	end = start + cost
	s.clock = end
	return start, end
}

// Peek copies device backing bytes into buf without emitting an API record
// or charging the cost model. It exists for subsystems that model accesses
// outside the GPU API surface — the unified-memory manager's host-side
// accesses — and for tests.
func (d *Device) Peek(ptr DevicePtr, buf []byte) error {
	b, off, err := d.resolveSpan(ptr, uint64(len(buf)))
	if err != nil {
		return err
	}
	copy(buf, b.data[off:off+uint64(len(buf))])
	return nil
}

// Poke writes buf into device backing bytes without emitting an API record
// or charging the cost model (see Peek).
func (d *Device) Poke(ptr DevicePtr, buf []byte) error {
	b, off, err := d.resolveSpan(ptr, uint64(len(buf)))
	if err != nil {
		return err
	}
	copy(b.data[off:off+uint64(len(buf))], buf)
	return nil
}

// Malloc allocates size bytes of device memory.
func (d *Device) Malloc(size uint64) (DevicePtr, error) {
	ptr, err := d.alloc.Alloc(size)
	if err != nil {
		return 0, err
	}
	rec := d.newRecord(APIMalloc, "cudaMalloc", 0)
	rec.Ptr = ptr
	rec.Size = size
	rec.StartCycle, rec.EndCycle = d.hostSyncOp(d.spec.MallocCycles)
	d.emit(rec)
	return ptr, nil
}

// Free releases device memory previously returned by Malloc.
func (d *Device) Free(ptr DevicePtr) error {
	if err := d.alloc.Free(ptr); err != nil {
		return err
	}
	rec := d.newRecord(APIFree, "cudaFree", 0)
	rec.Ptr = ptr
	rec.StartCycle, rec.EndCycle = d.hostSyncOp(d.spec.FreeCycles)
	d.emit(rec)
	return nil
}

// copyCost returns the simulated cycles for moving n bytes.
func (d *Device) copyCost(n uint64) uint64 {
	bw := d.spec.CopyBytesPerCycle
	if bw == 0 {
		bw = 1
	}
	c := n / bw
	if c == 0 {
		c = 1
	}
	return c
}

// resolveSpan validates that [ptr, ptr+n) lies inside one live allocation and
// returns the block plus the byte offset of ptr within it.
func (d *Device) resolveSpan(ptr DevicePtr, n uint64) (*block, uint64, error) {
	b := d.alloc.lookup(ptr)
	if b == nil {
		return nil, 0, fmt.Errorf("%w: 0x%x is not in a live allocation", ErrBadCopy, uint64(ptr))
	}
	off := uint64(ptr - b.addr)
	if off+n > b.req {
		return nil, 0, fmt.Errorf("%w: [0x%x, 0x%x) exceeds allocation %v",
			ErrBadCopy, uint64(ptr), uint64(ptr)+n, Range{Addr: b.addr, Size: b.req})
	}
	return b, off, nil
}

// MemcpyHtoD copies host data into device memory on the given stream
// (nil means the synchronous default-stream form).
func (d *Device) MemcpyHtoD(dst DevicePtr, src []byte, stream *Stream) error {
	n := uint64(len(src))
	b, off, err := d.resolveSpan(dst, n)
	if err != nil {
		return err
	}
	copy(b.data[off:off+n], src)
	rec := d.recordCopy(dst, 0, n, CopyHostToDevice, stream)
	rec.Writes = []Range{{Addr: dst, Size: n}}
	d.emit(rec)
	return nil
}

// MemcpyDtoH copies device memory back to the host buffer.
func (d *Device) MemcpyDtoH(dst []byte, src DevicePtr, stream *Stream) error {
	n := uint64(len(dst))
	b, off, err := d.resolveSpan(src, n)
	if err != nil {
		return err
	}
	copy(dst, b.data[off:off+n])
	rec := d.recordCopy(0, src, n, CopyDeviceToHost, stream)
	rec.Reads = []Range{{Addr: src, Size: n}}
	d.emit(rec)
	return nil
}

// MemcpyDtoD copies n bytes between device buffers.
func (d *Device) MemcpyDtoD(dst, src DevicePtr, n uint64, stream *Stream) error {
	sb, soff, err := d.resolveSpan(src, n)
	if err != nil {
		return err
	}
	db, doff, err := d.resolveSpan(dst, n)
	if err != nil {
		return err
	}
	copy(db.data[doff:doff+n], sb.data[soff:soff+n])
	rec := d.recordCopy(dst, src, n, CopyDeviceToDevice, stream)
	rec.Reads = []Range{{Addr: src, Size: n}}
	rec.Writes = []Range{{Addr: dst, Size: n}}
	d.emit(rec)
	return nil
}

// recordCopy builds and times the record common to all copy directions.
func (d *Device) recordCopy(dst, src DevicePtr, n uint64, kind MemcpyKind, stream *Stream) *APIRecord {
	streamID := 0
	if stream != nil {
		streamID = stream.id
	}
	rec := d.newRecord(APIMemcpy, "cudaMemcpy", streamID)
	rec.Dst, rec.Src, rec.Size, rec.CopyKind = dst, src, n, kind
	cost := d.copyCost(n)
	if stream == nil {
		rec.StartCycle, rec.EndCycle = d.hostSyncOp(cost)
	} else {
		rec.StartCycle, rec.EndCycle = d.streamOp(stream, cost)
	}
	return rec
}

// Memset fills n bytes of device memory with value on the given stream
// (nil means the synchronous form).
func (d *Device) Memset(ptr DevicePtr, value byte, n uint64, stream *Stream) error {
	b, off, err := d.resolveSpan(ptr, n)
	if err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		b.data[off+i] = value
	}
	streamID := 0
	if stream != nil {
		streamID = stream.id
	}
	rec := d.newRecord(APIMemset, "cudaMemset", streamID)
	rec.Ptr, rec.Size = ptr, n
	cost := d.copyCost(n)
	if stream == nil {
		rec.StartCycle, rec.EndCycle = d.hostSyncOp(cost)
	} else {
		rec.StartCycle, rec.EndCycle = d.streamOp(stream, cost)
	}
	rec.Writes = []Range{{Addr: ptr, Size: n}}
	d.emit(rec)
	return nil
}
