package trace

import (
	"sync/atomic"

	"drgpum/internal/callpath"
	"drgpum/internal/gpu"
	"drgpum/internal/obs"
)

// AccessSink receives the memory accesses of instrumented kernels, each
// attributed to its data object. The intra-object analyzer implements this
// to maintain its access bitmaps and frequency maps (paper §5.2). The
// collector hands over each access batch in one call, with every record
// resolved: a record whose Tag is t != 0 touched object objs[t-1] (t is
// ObjectTag of the object's ID), and a record whose Tag is 0 touched no
// live object. The batch is either the device's buffer or the collector's
// own copy of it and is only valid for the duration of the call.
type AccessSink interface {
	// ObjectAccessBatch reports one batch of memory instructions executed,
	// in order, while GPU API rec (always an instrumented kernel launch)
	// ran. objs is the trace's object table, indexed by ObjectID.
	ObjectAccessBatch(rec *gpu.APIRecord, batch []gpu.MemAccess, objs []*Object)
}

// ObjectTag is the access-record tag of object id: its ID plus one, so
// that the zero tag keeps meaning "not resolved". LiveTable hands these
// tags to the device, which writes them into gpu.MemAccess.Tag.
func ObjectTag(id ObjectID) uint32 { return uint32(id) + 1 }

// Collector is the online data collector of paper §4: it subscribes to the
// Sanitizer-analog hooks, intercepts every GPU API, maintains the live
// memory map M, unwinds call paths, and incrementally builds the
// object-level access trace.
type Collector struct {
	unwinder *callpath.Unwinder
	trace    *Trace
	mmap     *MemoryMap

	sink AccessSink

	// hostTrace mirrors gpu.ObjectIDHostTrace: kernel object touches are
	// reconstructed on the host from the raw access stream instead of from
	// device hit flags.
	hostTrace bool

	// pending accumulates object touches of the kernel currently executing
	// in host-trace mode.
	pendingReads  map[ObjectID]bool
	pendingWrites map[ObjectID]bool

	scratch []ObjectID

	// done is the device's completion handle (nil until the collector is
	// added to a device). The batch path may run on the pipeline consumer
	// after later APIs, so it reads no state they write: sinkObjs is the
	// object table the sink indexes, trace.Objects extended to its
	// capacity and stored again only when an append moves it. A batch
	// indexes only objects live when its launch built its table, which
	// were appended before the launch handed anything off.
	done     *gpu.Completion
	sinkObjs atomic.Pointer[[]*Object]
	// supplied is set by the first LiveTable call and never cleared: from
	// then on the collector is the device's live-ranges provider, and the
	// tags launch records carry name its objects. It is written once,
	// before any batch that reads it is handed off.
	supplied bool
	// tabled is the object count when the device last built a hit table
	// from LiveTable: work still queued on the consumer can only touch
	// objects below it.
	tabled int
	// liveBuf and tagBuf back LiveTable's result; the device copies it.
	liveBuf []gpu.Range
	tagBuf  []uint32
	// resolved is the collector's copy of a batch whose records it had to
	// tag itself, allocated on first use; the batch other hooks receive is
	// never written.
	resolved []gpu.MemAccess

	// obsRec and the cached nodes are the self-observability taps. The
	// nodes stay nil when no enabled recorder is installed (obs.Root
	// returns nil then), so the disabled hot path costs one nil check per
	// ingested event plus one atomic load per counter update.
	obsRec       *obs.Recorder
	obsAPINode   *obs.Node
	obsBatchNode *obs.Node
}

var _ gpu.AsyncHook = (*Collector)(nil)

// NewCollector creates a collector with an empty trace.
func NewCollector() *Collector {
	u := callpath.NewUnwinder()
	return &Collector{
		unwinder:      u,
		trace:         &Trace{Unwinder: u},
		mmap:          NewMemoryMap(),
		pendingReads:  make(map[ObjectID]bool),
		pendingWrites: make(map[ObjectID]bool),
	}
}

// SetSink installs the intra-object access consumer. Call it between
// APIs, before the device completes a launch asynchronously.
func (c *Collector) SetSink(s AccessSink) {
	c.sink = s
	c.publishObjects()
}

// publishObjects stores the object table, at full capacity, for the sink.
func (c *Collector) publishObjects() {
	objs := c.trace.Objects[:cap(c.trace.Objects)]
	c.sinkObjs.Store(&objs)
}

// AcceptAsync implements gpu.AsyncHook: the collector orders its
// consumer-side state through q.
func (c *Collector) AcceptAsync(q *gpu.Completion) { c.done = q }

// SetObs installs a self-observability recorder: API and access-batch
// ingestion report spans under ingest/ and feed the event counters. Safe to
// call with nil or a disabled recorder (the taps stay inert).
func (c *Collector) SetObs(r *obs.Recorder) {
	c.obsRec = r
	if ing := r.Root().Child("ingest"); ing != nil {
		c.obsAPINode = ing.Child("api")
		c.obsBatchNode = ing.Child("batch")
	}
}

// SetHostTraceMode switches kernel object identification to the host-side
// reconstruction baseline (must match the device's ObjectIDMode).
func (c *Collector) SetHostTraceMode(on bool) { c.hostTrace = on }

// Trace returns the trace built so far. Topological timestamps are only
// valid after the profiler's dependency pass has run.
func (c *Collector) Trace() *Trace { return c.trace }

// MemoryMap exposes the live-object map (used by the custom-pool bridge).
func (c *Collector) MemoryMap() *MemoryMap { return c.mmap }

// Annotate attaches an application-facing label and element size to the live
// object based at ptr. Element size 0 keeps the default. Annotation is how
// workloads give objects the names the paper's reports use (q_dx,
// l.weights_gpu, pMem_conformations, ...). The intra-object sink reads the
// element size when a launch first touches the object, so Annotate waits
// for the consumer when a launch that may still be queued was built with
// the object live; an object allocated since the last launch needs no wait.
func (c *Collector) Annotate(ptr gpu.DevicePtr, label string, elemSize uint32) bool {
	id, ok := c.mmap.LookupBase(ptr)
	if !ok {
		return false
	}
	if int(id) < c.tabled {
		c.done.Wait()
	}
	o := c.trace.Objects[id]
	o.Label = label
	if elemSize != 0 {
		o.ElemSize = elemSize
	}
	return true
}

// MarkPoolSegment flags the live object based at ptr as a pool backing
// segment and delists it from the memory map, so subsequent accesses inside
// the segment attribute to the pool tensors carved from it (paper §5.4).
func (c *Collector) MarkPoolSegment(ptr gpu.DevicePtr) bool {
	id, ok := c.mmap.LookupBase(ptr)
	if !ok {
		return false
	}
	c.trace.Objects[id].PoolSegment = true
	c.mmap.Remove(ptr)
	return true
}

// LiveRanges returns the address ranges of the memory map's live objects in
// address order — the rows of the table the device hit-flag scheme
// snapshots at each kernel launch.
func (c *Collector) LiveRanges() []gpu.Range {
	return c.mmap.LiveRanges()
}

// LiveTable is the device's live-ranges provider
// (gpu.Device.SetLiveRangesProvider): the memory map's live ranges in
// address order, each with its object's ObjectTag. Both slices are reused
// by the next call. The first call makes the collector the device's
// provider, so OnAccessBatch trusts the tags the records carry from then
// on.
func (c *Collector) LiveTable() ([]gpu.Range, []uint32) {
	c.liveBuf, c.tagBuf = c.mmap.appendLiveTable(c.liveBuf[:0], c.tagBuf[:0])
	if !c.supplied {
		c.supplied = true
	}
	c.tabled = len(c.trace.Objects)
	return c.liveBuf, c.tagBuf
}

// LiveObject returns the live object containing addr, if any.
func (c *Collector) LiveObject(addr gpu.DevicePtr) (*Object, bool) {
	id, ok := c.mmap.Lookup(addr)
	if !ok {
		return nil, false
	}
	return c.trace.Objects[id], true
}

// OnAPI implements gpu.Hook. It runs synchronously at each GPU API
// completion on the invoking goroutine, so the call-path capture below sees
// the application stack that issued the API.
func (c *Collector) OnAPI(rec *gpu.APIRecord) {
	sp := c.obsAPINode.Start()
	info := &APIInfo{
		Rec: rec,
		// The leaf is the application's call into the device API
		// (Malloc/Launch/...) or into a pool in front of it.
		Path: c.unwinder.Capture(),
		// Provisional timestamp: invocation order. The dependency pass
		// overwrites this for multi-stream programs.
		Topo: rec.Index,
	}

	switch rec.Kind {
	case gpu.APIMalloc:
		o := &Object{
			ID:       ObjectID(len(c.trace.Objects)),
			Ptr:      rec.Ptr,
			Size:     rec.Size,
			ElemSize: DefaultElemSize,
			AllocAPI: rec.Index,
			FreeAPI:  NoAPI,
			Pool:     rec.Custom,
		}
		o.AllocPath = info.Path
		moves := len(c.trace.Objects) == cap(c.trace.Objects)
		c.trace.Objects = append(c.trace.Objects, o)
		if moves && c.sink != nil {
			c.publishObjects()
		}
		c.mmap.Insert(o.ID, o.Range())
		info.Obj, info.HasObj = o.ID, true

	case gpu.APIFree:
		if id, ok := c.mmap.Remove(rec.Ptr); ok {
			o := c.trace.Objects[id]
			o.FreeAPI = int64(rec.Index)
			o.FreePath = info.Path
			info.Obj, info.HasObj = id, true
		}

	case gpu.APIMemcpy, gpu.APIMemset:
		c.attributeRanges(info, rec)

	case gpu.APIKernel:
		if c.hostTrace {
			// Host-trace mode: consume the touches reconstructed while the
			// kernel's access stream arrived.
			for id := range c.pendingReads {
				c.trace.Objects[id].touch(rec.Index, rec.Kind, true, false)
				info.ReadObjs = append(info.ReadObjs, id)
			}
			for id := range c.pendingWrites {
				c.trace.Objects[id].touch(rec.Index, rec.Kind, false, true)
				info.WriteObjs = append(info.WriteObjs, id)
			}
			clear(c.pendingReads)
			clear(c.pendingWrites)
			sortObjectIDs(info.ReadObjs)
			sortObjectIDs(info.WriteObjs)
		} else {
			// Hit-flag mode: the record carries object-resolution ranges.
			c.attributeRanges(info, rec)
			c.queueCost(rec)
		}
	}

	// Keep the APIs slice dense and indexed by invocation index.
	for uint64(len(c.trace.APIs)) < rec.Index {
		c.trace.APIs = append(c.trace.APIs, nil)
	}
	c.trace.APIs = append(c.trace.APIs, info)
	c.obsRec.Add(obs.CtrAPIs, 1)
	sp.End()
}

// queueCost queues the attribution of a kernel launch's cost record,
// which the device may still be closing on the pipeline consumer. Every
// cost entry is a hit row of the launch, so queueCost resolves the rows'
// bases now, while the memory map is still the one the launch ran with:
// by the time the record closes, an object the kernel touched may have
// been freed and its address reused.
func (c *Collector) queueCost(rec *gpu.APIRecord) {
	n := len(rec.Reads) + len(rec.Writes)
	if n == 0 {
		return
	}
	objs := make([]*Object, 0, n)
	for _, rs := range [2][]gpu.Range{rec.Reads, rec.Writes} {
		for _, r := range rs {
			var o *Object
			if id, ok := c.mmap.LookupBase(r.Addr); ok {
				o = c.trace.Objects[id]
			}
			objs = append(objs, o)
		}
	}
	c.done.After(func() { c.attributeCost(rec, objs) })
}

// attributeCost folds a kernel launch's cost-model record into the
// objects its entries' hit rows resolved to: objs holds the object of
// each rec.Reads row and then each rec.Writes row, nil for none. It runs
// in API order, after the launch's cost record closed and before any
// later launch's, so the per-object totals are complete when a window
// closes or a report is built, and the counters are commutative sums, so
// every profiling mode folds the same values regardless of hook delivery
// order within the launch.
func (c *Collector) attributeCost(rec *gpu.APIRecord, objs []*Object) {
	if rec.Cost == nil {
		return
	}
	for i := range rec.Cost.Entries {
		e := &rec.Cost.Entries[i]
		o := rowObject(rec, objs, e.Base)
		if o == nil {
			continue
		}
		o.Cost.Add(e.ObjectCost)
		o.AddKernelCost(rec.Name, e.ObjectCost)
	}
}

// rowObject returns the object of the first hit row of rec based at base.
func rowObject(rec *gpu.APIRecord, objs []*Object, base uint64) *Object {
	for i, r := range rec.Reads {
		if uint64(r.Addr) == base {
			return objs[i]
		}
	}
	for i, r := range rec.Writes {
		if uint64(r.Addr) == base {
			return objs[len(rec.Reads)+i]
		}
	}
	return nil
}

// attributeRanges maps the record's read/written address ranges to live
// objects and records the touches.
func (c *Collector) attributeRanges(info *APIInfo, rec *gpu.APIRecord) {
	for _, r := range rec.Reads {
		c.scratch = c.mmap.Overlapping(c.scratch[:0], r)
		for _, id := range c.scratch {
			c.trace.Objects[id].touch(rec.Index, rec.Kind, true, false)
			info.ReadObjs = appendUnique(info.ReadObjs, id)
		}
	}
	for _, r := range rec.Writes {
		c.scratch = c.mmap.Overlapping(c.scratch[:0], r)
		for _, id := range c.scratch {
			c.trace.Objects[id].touch(rec.Index, rec.Kind, false, true)
			info.WriteObjs = appendUnique(info.WriteObjs, id)
		}
	}
}

// OnAccessBatch implements gpu.Hook: it receives the per-instruction access
// stream of instrumented kernels, attributes each access to its object and
// hands the batch to the intra-object sink in one call. On a launch whose
// table the collector supplied (LiveTable), the device has already
// resolved each access to its object once, and the record carries the
// answer (gpu.MemAccess.Tag); only records without a tag are looked up in
// the memory map. In host-trace mode no record carries a tag: every
// access is looked up, and the lookups also reconstruct the kernel's
// object touch set (the expensive path the paper's Figure 5 optimization
// avoids).
func (c *Collector) OnAccessBatch(rec *gpu.APIRecord, batch []gpu.MemAccess) {
	sp := c.obsBatchNode.Start()
	if c.sink != nil && rec.Instrumented {
		c.sink.ObjectAccessBatch(rec, c.resolveBatch(batch), *c.sinkObjs.Load())
	} else if c.hostTrace {
		for i := range batch {
			if a := &batch[i]; a.Space == gpu.SpaceGlobal {
				if id, ok := c.mmap.Lookup(a.Addr); ok {
					c.touchPending(id, a.Kind)
				}
			}
		}
	}
	c.obsRec.Add(obs.CtrAccessBatches, 1)
	c.obsRec.Add(obs.CtrAccesses, uint64(len(batch)))
	sp.End()
}

// resolveBatch returns batch with every record tagged with the live object
// it touched (ObjectTag), or 0 for none. A tag the device wrote on a
// launch whose table the collector supplied stands; every other global
// record is resolved with MemoryMap.Lookup, and shared-memory records
// touch no object. Records whose tag changes are written into the
// collector's copy of the batch, made on the first change. In host-trace
// mode each resolved record also marks its object's pending touch.
func (c *Collector) resolveBatch(batch []gpu.MemAccess) []gpu.MemAccess {
	out := batch
	copied := false
	for i := range batch {
		a := &batch[i]
		var tag uint32
		if a.Space == gpu.SpaceGlobal {
			if a.Tag != 0 && c.supplied {
				continue
			}
			if id, ok := c.mmap.Lookup(a.Addr); ok {
				tag = ObjectTag(id)
				if c.hostTrace {
					c.touchPending(id, a.Kind)
				}
			}
		}
		if tag == a.Tag {
			continue
		}
		if !copied {
			c.resolved = append(c.resolved[:0], batch...)
			out, copied = c.resolved, true
		}
		out[i].Tag = tag
	}
	return out
}

// touchPending records a host-trace access to object id in the kernel's
// pending touch set.
func (c *Collector) touchPending(id ObjectID, kind gpu.AccessKind) {
	if kind == gpu.AccessRead {
		c.pendingReads[id] = true
	} else {
		c.pendingWrites[id] = true
	}
}

// appendUnique appends id if it is not already present (touch lists per API
// are tiny, so linear scan beats a map).
func appendUnique(s []ObjectID, id ObjectID) []ObjectID {
	for _, x := range s {
		if x == id {
			return s
		}
	}
	return append(s, id)
}

// sortObjectIDs sorts in place (insertion sort; host-trace touch sets are
// small and this avoids an import).
func sortObjectIDs(s []ObjectID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
