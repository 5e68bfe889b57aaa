package core

import (
	"sort"

	"drgpum/internal/depgraph"
	"drgpum/internal/gpu"
	"drgpum/internal/intraobj"
	"drgpum/internal/objlevel"
	"drgpum/internal/obs"
	"drgpum/internal/trace"
)

// DefaultWindowKernels is the kernel-epoch length used when
// StreamingConfig.WindowKernels is unset.
const DefaultWindowKernels = 16

// StreamingConfig enables memory-bounded analysis: GPU APIs are grouped
// into kernel-epoch windows, and when a window closes its raw
// per-invocation state — access ranges, run batches, intermediate access
// events, intra-object bitmaps of freed objects — is folded into compact
// summaries and retired. Collector resident memory becomes O(open window +
// summaries) instead of O(full history), and Finish produces a report
// byte-identical to an offline run's (the streaming determinism tests pin
// this): both read the same arrival-time analysis state.
type StreamingConfig struct {
	// Enabled turns streaming windowed analysis on.
	Enabled bool
	// WindowKernels is how many kernel launches one epoch spans before the
	// window closes (<= 0 selects DefaultWindowKernels).
	WindowKernels int
}

// HeatCell is one object's access intensity within one epoch.
type HeatCell struct {
	// Object is the touched object.
	Object trace.ObjectID
	// Touches counts the GPU APIs of the epoch that accessed the object.
	Touches uint64
	// ExcessTransactions counts the memory transactions the cost model
	// attributed to the object during the epoch beyond the coalesced ideal
	// (zero when the cost model is off): the temporal traffic-waste track.
	ExcessTransactions uint64
}

// HeatEpoch is one closed kernel-epoch window of the temporal heat map.
type HeatEpoch struct {
	// FirstAPI and LastAPI bound the epoch (invocation indices, inclusive).
	FirstAPI uint64
	LastAPI  uint64
	// Cells lists the objects touched during the epoch, ascending by ID.
	Cells []HeatCell
}

// HeatMap is the object×epoch access-intensity matrix a streaming run
// accumulates — the temporal view the CUTHERMO-style heat-map rendering and
// the GUI heat track draw from.
type HeatMap struct {
	// WindowKernels is the epoch length the map was built with.
	WindowKernels int
	// Epochs lists the closed windows in time order.
	Epochs []HeatEpoch
}

// arrivalHook is the arrival-time analysis hook every profiler registers
// right after the collector. For each GPU API it assigns the final
// topological timestamp and feeds each touched object's event to the
// consecutive-access accumulator, so the dependency and object-level
// stages have nothing left to walk when a report is built. Under
// Config.Streaming it also runs the kernel-epoch windows: it accumulates
// per-epoch heat cells, seals the intra-object state of freed objects, and
// — when a window closes — compacts access lists and retires the window's
// API records. Without streaming the trace keeps its full history, which
// SaveProfile and the GUI access markers need.
type arrivalHook struct {
	t   *trace.Trace
	inc *depgraph.Incremental
	acc *objlevel.Accumulator

	// done is the device's completion handle: seals run behind the
	// launches the device may still be completing on the pipeline
	// consumer, and a window close waits for them. live is the device's
	// in-use bytes as of the latest launch's table, in that same order:
	// the intra-object recorder's map-mode decision reads it. livePub is
	// the last value handed to live.
	done          *gpu.Completion
	live, livePub uint64

	// The fields below serve streaming only; heat is nil without it.
	recorder      *intraobj.Recorder // nil at object-level granularity
	windowKernels int
	kernels       int    // kernel launches in the open window
	retired       uint64 // invocation index where the open window starts

	curCells map[trace.ObjectID]uint64
	// prevExcess holds each object's cumulative excess transactions at
	// the last window close that saw them grow: differencing against it
	// yields an epoch's traffic-waste delta.
	prevExcess map[trace.ObjectID]uint64
	heat       *HeatMap

	obsRec  *obs.Recorder
	winNode *obs.Node
}

var _ gpu.AsyncHook = (*arrivalHook)(nil)

func newArrivalHook(t *trace.Trace, rec *intraobj.Recorder, cfg Config) *arrivalHook {
	h := &arrivalHook{
		t:   t,
		inc: depgraph.NewIncremental(),
		acc: objlevel.NewAccumulator(cfg.ObjLevel),
	}
	if !cfg.Streaming.Enabled {
		return h
	}
	wk := cfg.Streaming.WindowKernels
	if wk <= 0 {
		wk = DefaultWindowKernels
	}
	h.recorder = rec
	h.windowKernels = wk
	h.curCells = make(map[trace.ObjectID]uint64)
	h.prevExcess = make(map[trace.ObjectID]uint64)
	h.heat = &HeatMap{WindowKernels: wk}
	h.obsRec = cfg.Obs
	// ingest/window is the window layer's span: only streaming runs record
	// it, so offline observability snapshots carry no window span.
	if root := cfg.Obs.Root(); root != nil {
		h.winNode = root.Child("ingest").Child("window")
	}
	return h
}

// OnAPI implements gpu.Hook. It runs after the collector's OnAPI (hook
// order), so t.APIs[rec.Index] exists, the object touch sets are final, and
// lifetime endpoints are recorded — everything arrival-time analysis needs.
func (h *arrivalHook) OnAPI(rec *gpu.APIRecord) {
	sp := h.winNode.Start()
	info := h.t.APIs[rec.Index]
	touched := h.inc.Observe(h.t, info)
	for _, id := range touched {
		if ev := h.t.Object(id).LastAccess(); ev != nil && ev.API == rec.Index {
			h.acc.Observe(h.t, id, *ev)
		}
	}
	if h.heat != nil {
		h.stream(rec, info, touched)
	}
	sp.End()
}

// OnAccessBatch implements gpu.Hook. Access batches are consumed upstream
// (collector attribution, intra-object recorder); arrival analysis only
// acts at API boundaries.
func (h *arrivalHook) OnAccessBatch(*gpu.APIRecord, []gpu.MemAccess) {}

// AcceptAsync implements gpu.AsyncHook.
func (h *arrivalHook) AcceptAsync(q *gpu.Completion) { h.done = q }

// publishLive hands n, the device's in-use bytes when a launch builds its
// table, to the recorder's map-mode decision for that launch.
func (h *arrivalHook) publishLive(n uint64) {
	if n != h.livePub {
		h.livePub = n
		h.done.After(func() { h.live = n })
	}
}

// stream does the windowing work for one API: bump the heat cells of the
// touched objects, seal a freed object's intra-object state, and close the
// window after its last kernel.
func (h *arrivalHook) stream(rec *gpu.APIRecord, info *trace.APIInfo, touched []trace.ObjectID) {
	for _, id := range touched {
		h.curCells[id]++
	}

	switch rec.Kind {
	case gpu.APIFree:
		if h.recorder != nil && info.HasObj {
			// After the batches of every launch that touched the object.
			id := int(info.Obj)
			h.done.After(func() { h.recorder.Seal(id) })
			h.obsRec.AddNamed(obs.NamedWindowObjectsSealed, 1)
		}
	case gpu.APIKernel:
		h.kernels++
		if h.kernels >= h.windowKernels {
			h.closeWindow(rec.Index)
		}
	}
}

// closeWindow finalizes the open window ending at invocation index upTo:
// record its heat epoch, compact the access lists of its touched objects,
// and retire its API records.
func (h *arrivalHook) closeWindow(upTo uint64) {
	// Every launch of the window has completed and its cost is folded
	// into the objects' counters once the consumer is idle. A kernel adds
	// at least as many transactions as their coalesced ideal, so an
	// object's excess never falls, and its growth since the previous close
	// is the epoch's excess. Only kernels that touch an object add to its
	// cost, so the cells of the epoch's touched objects hold all of it.
	h.done.Wait()
	cells := make([]HeatCell, 0, len(h.curCells))
	for id, n := range h.curCells {
		c := HeatCell{Object: id, Touches: n}
		if ex := h.t.Object(id).Cost.ExcessTransactions(); ex > h.prevExcess[id] {
			c.ExcessTransactions = ex - h.prevExcess[id]
			h.prevExcess[id] = ex
		}
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Object < cells[j].Object })
	h.heat.Epochs = append(h.heat.Epochs, HeatEpoch{
		FirstAPI: h.retired,
		LastAPI:  upTo,
		Cells:    cells,
	})

	// Every event of a closed window has been consumed: timestamps and
	// dependency edges at arrival, consecutive-access rules by the
	// accumulator, intra-object maps by the recorder. What Finish still
	// needs from an object is only its first/last event, which compaction
	// preserves; what it needs from an API is identity and timestamp, which
	// retirement preserves.
	for i := range cells {
		h.t.Object(cells[i].Object).CompactAccesses()
	}
	retired := uint64(0)
	for idx := h.retired; idx <= upTo && idx < uint64(len(h.t.APIs)); idx++ {
		if a := h.t.APIs[idx]; a != nil {
			a.Retire()
			retired++
		}
	}
	h.t.Streamed = true
	h.retired = upTo + 1
	h.kernels = 0
	clear(h.curCells)

	h.obsRec.AddNamed(obs.NamedWindowsClosed, 1)
	h.obsRec.AddNamed(obs.NamedWindowAPIsRetired, retired)
}

// finish closes a streaming run's trailing partial window. Only Finish
// calls this — Snapshot must leave the open window open, so interleaved
// snapshots do not change what Finish reports.
func (h *arrivalHook) finish() {
	if h.heat == nil {
		return
	}
	if n := uint64(len(h.t.APIs)); h.retired < n {
		h.closeWindow(n - 1)
	}
}
