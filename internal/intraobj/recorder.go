package intraobj

import (
	"math"
	"math/bits"

	"drgpum/internal/gpu"
	"drgpum/internal/obs"
	"drgpum/internal/trace"
)

// MapMode says where a kernel's access maps were updated (paper §5.5,
// "Accelerating intra-object analysis").
type MapMode uint8

const (
	// MapModeDevice updates access maps in device memory with atomic
	// operations and copies only the final maps back — fast, but the maps
	// must fit in device memory next to the live data objects.
	MapModeDevice MapMode = iota
	// MapModeHost ships every accessed address to the host and updates the
	// maps there — slower, but bounded only by host memory.
	MapModeHost
)

// String names the mode.
func (m MapMode) String() string {
	if m == MapModeHost {
		return "host"
	}
	return "device"
}

// ModeStats counts how many instrumented kernels ran in each mode.
type ModeStats struct {
	DeviceKernels int
	HostKernels   int
}

// objState is the per-object intra-object bookkeeping.
type objState struct {
	obj   *trace.Object
	elems int

	// base is the object's address and es its element width (ElemWidth);
	// shift is log2(es) when es is a power of two and -1 otherwise, so a
	// byte offset becomes an element index by a shift or, failing that, a
	// division. beginAPI refreshes all three: Annotate may set the element
	// size after the state was created.
	base  gpu.DevicePtr
	es    uint64
	shift int

	// cumulative access bitmap across all instrumented kernels — drives
	// overallocation and the structured-access "claimed" check.
	total *Bitmap
	// freqDiff holds the cumulative per-element access frequencies across
	// all kernels, which the reports' histograms and the NUAF variation
	// read, as a difference array of elems+1 slots: an access covering
	// [lo, hi] costs two updates (freqDiff[lo]++, freqDiff[hi+1]--)
	// regardless of width, the last slot holds the -1 marker of a range
	// ending at the last element, and element i's frequency is the prefix
	// sum of slots 0..i, which summarize takes in its index-order passes.
	// uint32 wraparound makes the -1 markers cancel. True frequencies must
	// fit in uint32, the bound a dense uint32 map has; within it the prefix
	// sums are exact, and curTotal, a sum of access widths, equals the sum
	// of the API's per-element counts.
	freqDiff []uint32

	// current-API state (paper §5.2, non-uniform access frequency
	// procedure). curTouched marks the elements the API touched and
	// curLo/curHi bound them, so finalization wipes only that window of
	// the bitmap; the structured-access checks (Overlaps, Contiguous, Or)
	// still scan its words whole. curTotal sums the widths of the API's
	// clamped accesses: its access total.
	curTouched *Bitmap
	curLo      int
	curHi      int
	curTotal   uint64
	curAPI     uint64
	curKernel  string
	curActive  bool

	// host-mode spill buffer for the current API.
	spill []spilledAccess

	// sliceTotals records, per touching API in order, the total number of
	// accesses that API made to this object. When the structured-access
	// property holds these are exactly the per-slice access frequencies the
	// paper sorts to pick hot slices (§7.3: "the variance of access
	// frequencies of individual slices in R_gpu is 58%").
	sliceTotals []uint64
	// hotKernel is the kernel that accessed this object the most.
	hotKernel      string
	hotKernelTotal uint64
	lastAPI        uint64

	// structured-access state. saViolated records an overlap between two
	// APIs' touched regions; saNonContig records that some API's touched
	// region was not a contiguous slice.
	saViolated  bool
	saNonContig bool
	apiTouches  int

	// sealed is the object's summary once the streaming window manager
	// freezes a freed object (Seal), which hands the O(elements) maps
	// above to the recorder's spare.
	sealed *summary
}

type spilledAccess struct {
	lo, hi int
}

// Recorder consumes the object-attributed access stream (it implements
// trace.AccessSink) and maintains per-object bitmaps and frequency maps.
// It adaptively chooses device- or host-side map updates per kernel based
// on a memory budget, mirroring the paper's scheme: device maps are used
// only while the total size of access maps plus live data objects fits in
// GPU memory.
type Recorder struct {
	// CapacityBytes is the simulated device memory capacity.
	CapacityBytes uint64
	// LiveBytes reports the device bytes currently occupied by data
	// objects; the profiler wires this to the device allocator.
	LiveBytes func() uint64

	// states is the per-object state table, indexed by ObjectID: nil for
	// an object no instrumented kernel has touched. An access finds its
	// object's state with one indexed load.
	states []*objState
	order  []trace.ObjectID // first-touch order for deterministic reports

	// active lists the objects touched by the in-flight API in first-touch
	// order, so finalization visits exactly the touched set instead of
	// every object ever seen.
	active []*objState
	// mapBytesTotal is the incrementally-maintained access-map footprint of
	// all tracked objects (what mapBytes re-summed before every kernel).
	mapBytesTotal uint64

	// spare holds the maps of one sealed object for the next object's
	// first touch (paper §5.2: DrGPUM zeros out its maps at each API
	// rather than allocating them). Seal keeps the larger of its object's
	// maps and the spare's, and drops the spare once no tracked object is
	// left unsealed: unsealed counts them.
	spare    spareMaps
	unsealed int

	curAPI    uint64
	curMode   MapMode
	haveAPI   bool
	modeStats ModeStats

	// Self-observability taps. The hot ingestion loops only bump the plain
	// local totals below; Flush publishes the deltas to the recorder, so
	// the per-access cost with observability on is identical to off.
	// finalizeNode is nil without an enabled recorder (one nil check per
	// kernel finalization).
	obsRec       *obs.Recorder
	finalizeNode *obs.Node
	spillTotal   uint64 // coalesced host-mode spill records replayed
	wordTotal    uint64 // access-bitmap words covered by finalized windows
	spillPub     uint64 // portion of spillTotal already published
	wordPub      uint64 // portion of wordTotal already published
}

var _ trace.AccessSink = (*Recorder)(nil)

// spareMaps is one sealed object's per-element arrays at full capacity:
// its frequency difference array and its cumulative and per-API bitmaps.
// freqDiff was made at elems+1 slots and the bitmaps at elems bits, so an
// object whose elems+1 slots fit in cap(freqDiff) fits in both bitmaps.
type spareMaps struct {
	freqDiff       []uint32
	total, touched *Bitmap
}

// NewRecorder creates a recorder with the given device memory capacity used
// for the adaptive mode decision. A zero capacity always selects device
// maps.
func NewRecorder(capacityBytes uint64) *Recorder {
	return &Recorder{CapacityBytes: capacityBytes}
}

// Stats returns the adaptive-mode kernel counts.
func (r *Recorder) Stats() ModeStats { return r.modeStats }

// SetObs installs a self-observability recorder: per-kernel finalization
// reports a span under ingest/finalize, and Flush publishes the spill and
// bitmap-word counters. Inert with a nil or disabled recorder.
func (r *Recorder) SetObs(rec *obs.Recorder) {
	if root := rec.Root(); root != nil {
		r.obsRec = rec
		r.finalizeNode = root.Child("ingest").Child("finalize")
	}
}

// mapBytes estimates the device memory the access maps of all tracked
// objects would occupy: one bit per element (bitmap) plus four bytes per
// element (frequency map). Maintained incrementally as objects are first
// seen, so the per-kernel mode decision is O(1).
func (r *Recorder) mapBytes() uint64 { return r.mapBytesTotal }

// chooseMode applies the paper's rule: before each kernel, if access maps
// and live data objects together fit in device memory, update maps on the
// device; otherwise fall back to host-side updates.
func (r *Recorder) chooseMode() MapMode {
	if r.CapacityBytes == 0 {
		return MapModeDevice
	}
	var live uint64
	if r.LiveBytes != nil {
		live = r.LiveBytes()
	}
	if live+r.mapBytes() <= r.CapacityBytes {
		return MapModeDevice
	}
	return MapModeHost
}

// ObjectAccessBatch implements trace.AccessSink. Each attributed record
// costs one indexed load of its object's state plus the check that the
// state is active for this API. A zero-byte record touches no element, so
// it is skipped like an unattributed one. The first attributed record of
// a new API closes the previous API and makes the API's map-mode decision.
func (r *Recorder) ObjectAccessBatch(rec *gpu.APIRecord, batch []gpu.MemAccess, objs []*trace.Object) {
	i := 0
	for i < len(batch) && (batch[i].Tag == 0 || batch[i].Size == 0) {
		i++
	}
	if i == len(batch) {
		return
	}
	if !r.haveAPI || rec.Index != r.curAPI {
		r.startAPI(rec)
	}
	host := r.curMode == MapModeHost
	for ; i < len(batch); i++ {
		a := &batch[i]
		if a.Tag == 0 || a.Size == 0 {
			continue
		}
		id := a.Tag - 1
		var st *objState
		if int(id) < len(r.states) {
			st = r.states[id]
		}
		if st == nil || !st.curActive {
			st = r.activate(objs[id], rec)
		}
		off := uint64(a.Addr - st.base)
		last := off + uint64(a.Size) - 1
		var lo, hi int
		if st.shift >= 0 {
			lo, hi = int(off>>st.shift), int(last>>st.shift)
		} else {
			lo, hi = int(off/st.es), int(last/st.es)
		}
		if host {
			st.addSpill(lo, hi)
		} else {
			st.update(lo, hi)
		}
	}
}

// startAPI closes the previous API and opens rec's, with its map-mode
// decision.
func (r *Recorder) startAPI(rec *gpu.APIRecord) {
	r.finalizeAPI()
	r.curAPI = rec.Index
	r.haveAPI = true
	r.curMode = r.chooseMode()
	if r.curMode == MapModeDevice {
		r.modeStats.DeviceKernels++
	} else {
		r.modeStats.HostKernels++
	}
}

// activate returns object o's state, created on the object's first touch,
// opened for the in-flight API. curActive is only true for the in-flight
// API (finalizeAPI clears it), so an active state needs no activation.
func (r *Recorder) activate(o *trace.Object, rec *gpu.APIRecord) *objState {
	for int(o.ID) >= len(r.states) {
		r.states = append(r.states, nil)
	}
	st := r.states[o.ID]
	if st == nil {
		st = r.newObjState(o)
		r.states[o.ID] = st
		r.order = append(r.order, o.ID)
		r.mapBytesTotal += uint64(st.elems)/8 + uint64(st.elems)*4
	}
	if !st.curActive {
		st.beginAPI(rec.Index, rec.Name)
		r.active = append(r.active, st)
	}
	return st
}

// state returns the state of object id, or nil if no instrumented kernel
// touched it.
func (r *Recorder) state(id int) *objState {
	if uint(id) < uint(len(r.states)) {
		return r.states[id]
	}
	return nil
}

// newObjState creates object o's state at its first touch, with its maps
// taken from the spare when they fit: the spare's frequency array and
// cumulative bitmap are cleared over the slots the object uses, and its
// per-API bitmap is clean, since finalization wipes what each API set.
func (r *Recorder) newObjState(o *trace.Object) *objState {
	elems := o.Elems()
	st := &objState{obj: o, elems: elems}
	if sp := r.spare; cap(sp.freqDiff) >= elems+1 {
		st.freqDiff = sp.freqDiff[:elems+1]
		clear(st.freqDiff)
		st.total = sp.total.resize(elems)
		clear(st.total.words)
		st.curTouched = sp.touched.resize(elems)
		r.spare = spareMaps{}
	} else {
		st.freqDiff = make([]uint32, elems+1)
		st.total = NewBitmap(elems)
		st.curTouched = NewBitmap(elems)
	}
	r.unsealed++
	return st
}

// resize reslices b's words to cover n elements, within their capacity.
func (b *Bitmap) resize(n int) *Bitmap {
	b.words, b.n = b.words[:(n+63)/64], n
	return b
}

// beginAPI opens the object's per-API maps (paper: "upon the invocation of
// a GPU API A, DrGPUM zeros out hashmaps of data objects this GPU API will
// access"). finalizeAPI wipes the touched bitmap window-at-a-time and the
// frequency updates accumulate in place, so opening costs nothing per
// element.
func (st *objState) beginAPI(api uint64, kernel string) {
	st.curLo, st.curHi = st.elems, -1
	st.curTotal = 0
	st.base = st.obj.Ptr
	st.es = st.obj.ElemWidth()
	st.shift = -1
	if st.es&(st.es-1) == 0 {
		st.shift = bits.TrailingZeros64(st.es)
	}
	st.curAPI = api
	st.curKernel = kernel
	st.curActive = true
	st.spill = st.spill[:0]
}

// update applies one access covering elements [lo, hi] to the maps: two
// difference-array stores, one add to the API's total and one word-level
// bitmap range set, independent of the access width. Single-element
// accesses (the pointwise kernel shape) skip the range machinery entirely.
func (st *objState) update(lo, hi int) {
	if lo == hi {
		if uint(lo) >= uint(st.elems) {
			return
		}
		st.freqDiff[lo]++
		st.freqDiff[lo+1]--
		st.curTotal++
		st.curTouched.words[lo>>6] |= 1 << (uint(lo) & 63)
		if lo < st.curLo {
			st.curLo = lo
		}
		if lo > st.curHi {
			st.curHi = lo
		}
		return
	}
	if lo < 0 {
		lo = 0
	}
	if hi >= st.elems {
		hi = st.elems - 1
	}
	if lo > hi {
		return
	}
	st.freqDiff[lo]++
	st.freqDiff[hi+1]--
	st.curTotal += uint64(hi - lo + 1)
	st.curTouched.SetRange(lo, hi)
	if lo < st.curLo {
		st.curLo = lo
	}
	if hi > st.curHi {
		st.curHi = hi
	}
}

// addSpill buffers a host-mode access for replay at kernel end, coalescing
// with the previous record when the new range extends it without overlap
// (the dominant shape of sequential sweeps). Only disjoint-adjacent merges
// are legal: merging overlapping records would undercount frequencies.
func (st *objState) addSpill(lo, hi int) {
	if n := len(st.spill); n > 0 {
		last := &st.spill[n-1]
		if lo == last.hi+1 {
			last.hi = hi
			return
		}
		if hi == last.lo-1 {
			last.lo = lo
			return
		}
	}
	st.spill = append(st.spill, spilledAccess{lo: lo, hi: hi})
}

// finalizeAPI closes out the per-API maps of every object the finished
// kernel touched: replay host-mode spills, record the per-API totals, run
// the structured-access disjointness check, fold the touched bitmap into
// the cumulative one, and wipe the touched window so the next beginAPI
// starts from a clean bitmap. Only the active set — objects this API
// actually touched — is visited.
func (r *Recorder) finalizeAPI() {
	if !r.haveAPI {
		return
	}
	sp := r.finalizeNode.Start()
	for _, st := range r.active {
		spills, words := st.finalizeObj()
		r.spillTotal += spills
		r.wordTotal += words
	}
	r.active = r.active[:0]
	sp.End()
}

// finalizeObj closes out one object's per-API maps and returns the spill
// and bitmap-word counts it consumed, which finalizeAPI accumulates.
func (st *objState) finalizeObj() (spills, words uint64) {
	spills = uint64(len(st.spill))
	for _, s := range st.spill {
		st.update(s.lo, s.hi)
	}
	st.spill = st.spill[:0]

	if st.curHi >= st.curLo {
		words = uint64(st.curHi>>6-st.curLo>>6) + 1
		// Structured access: this API's slice must not overlap any
		// element already claimed by a previous API.
		if st.curTouched.Overlaps(st.total) {
			st.saViolated = true
		}
		if !st.curTouched.Contiguous() {
			st.saNonContig = true
		}
		st.apiTouches++
		st.sliceTotals = append(st.sliceTotals, st.curTotal)

		st.total.Or(st.curTouched)

		// Clean-on-finalize: wipe only the touched window so beginAPI
		// needs no O(elements) zeroing.
		st.curTouched.ResetRange(st.curLo, st.curHi)
	}
	if st.curTotal > st.hotKernelTotal {
		st.hotKernelTotal = st.curTotal
		st.hotKernel = st.curKernel
		st.lastAPI = st.curAPI
	}
	st.curActive = false
	return spills, words
}

// Flush finalizes the in-flight API and publishes the accumulated counter
// deltas (publishing deltas keeps repeated Flush/Snapshot cycles from
// double-counting on a recorder shared across runs). The profiler calls it
// once collection ends, before detection.
func (r *Recorder) Flush() {
	r.finalizeAPI()
	r.haveAPI = false
	if r.obsRec != nil {
		r.obsRec.Add(obs.CtrSpillRecords, r.spillTotal-r.spillPub)
		r.obsRec.Add(obs.CtrBitmapWords, r.wordTotal-r.wordPub)
		r.spillPub, r.wordPub = r.spillTotal, r.wordTotal
	}
}

// excessCV removes the sampling-noise floor from a coefficient of
// variation: counts that arise from N independent random draws are
// Poisson-distributed with CV^2 ~= 1/mean even when the underlying access
// pattern is perfectly uniform. Subtracting that floor (in variance space)
// keeps Monte Carlo workloads such as XSBench from reporting non-uniform
// access frequency on statistically-uniform data, while deterministic skews
// (banded solvers, triangular updates) pass through essentially unchanged.
func excessCV(cvPct, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	floor := 100 * 100 / mean // (100/sqrt(mean))^2, in pct^2
	v := cvPct*cvPct - floor
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}
