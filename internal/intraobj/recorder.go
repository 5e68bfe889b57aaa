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

// A frequency page holds pageSlots slots of an object's frequency
// difference array: 4 KiB, a size class of the Go allocator, so a full
// page wastes no byte of its allocation.
const (
	pageShift = 10
	pageSlots = 1 << pageShift
	pageMask  = pageSlots - 1
)

// objState is the per-object intra-object bookkeeping. The fields a
// pointwise access reads and writes come first, together.
type objState struct {
	// page is the frequency page of the end marker the last update outside
	// it wrote, and pageLo the index of its first slot, so an access whose
	// two slots fall on it reads no page table, and a pointwise one is
	// applied inline in the ingest loop (point).
	page   []uint32
	pageLo int

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

	// base is the object's address and es its element width (ElemWidth);
	// shift is log2(es) when es is a power of two and -1 otherwise, so a
	// byte offset becomes an element index by a shift or, failing that, a
	// division. beginAPI refreshes all three: Annotate may set the element
	// size after the state was created. curActive is set while the
	// in-flight API has touched the object.
	base      gpu.DevicePtr
	es        uint64
	shift     int8
	curActive bool

	// structured-access state. saViolated records an overlap between two
	// APIs' touched regions; saNonContig records that some API's touched
	// region was not a contiguous slice.
	saViolated  bool
	saNonContig bool
	apiTouches  int

	obj   *trace.Object
	elems int

	// freq holds the cumulative per-element access frequencies across all
	// kernels, which the reports' histograms and the NUAF variation read,
	// as a difference array of elems+1 slots: an access covering [lo, hi]
	// costs two updates (slot lo +1, slot hi+1 -1) regardless of width,
	// the last slot holds the -1 marker of a range ending at the last
	// element, and element i's frequency is the prefix sum of slots 0..i,
	// which summarize takes in its index-order passes. uint32 wraparound
	// makes the -1 markers cancel. True frequencies must fit in uint32,
	// the bound a dense uint32 map has; within it the prefix sums are
	// exact, and curTotal, a sum of access widths, equals the sum of the
	// API's per-element counts.
	//
	// The slots are stored in pages of pageSlots behind this page table,
	// the last page ending at slot elems, and a page is allocated when an
	// update first reaches it. An update allocates every page from its
	// first slot's through its end marker's, so no range covers an element
	// of a page that does not exist: there the prefix sum is zero, and
	// summarize skips the page. An object's maps thus grow with the
	// elements kernels touch, not with its size.
	freq [][]uint32

	// cumulative access bitmap across all instrumented kernels — drives
	// overallocation and the structured-access "claimed" check.
	total *Bitmap

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

	// sealed is the object's summary once the streaming window manager
	// freezes a freed object (Seal), which hands the O(elements) maps
	// above to the recorder's spare and free list.
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

	// spare holds the bitmaps of one sealed object for the next object's
	// first touch, and free the full frequency pages of sealed objects for
	// later pages (paper §5.2: DrGPUM zeros out its maps at each API
	// rather than allocating them). Seal keeps the larger of its object's
	// bitmaps and the spare's, and drops both once no tracked object is
	// left unsealed: unsealed counts them.
	spare    spareMaps
	free     pageList
	unsealed int

	// curAPI and curKernel are the index and kernel name of the in-flight
	// API.
	curAPI    uint64
	curKernel string
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

// spareMaps is one sealed object's bitmaps at full capacity: its
// cumulative and per-API bitmaps, both made at the same number of bits.
type spareMaps struct {
	total, touched *Bitmap
}

// pageList is the recorder's free list of frequency pages of pageSlots
// capacity. It holds at most as many pages as the sealed object with the
// most such pages had, as the spare keeps the larger of two objects'
// bitmaps, so a streamed loop whose objects are freed in turn allocates
// its pages once.
type pageList struct {
	pages [][]uint32
	limit int
}

// get returns a page of n zero slots: one taken from the list and
// cleared, when the list holds one.
func (l *pageList) get(n int) []uint32 {
	k := len(l.pages) - 1
	if k < 0 {
		return make([]uint32, n)
	}
	p := l.pages[k][:n]
	l.pages[k] = nil
	l.pages = l.pages[:k]
	clear(p)
	return p
}

// put adds the pages of pageSlots capacity of a sealed object's page
// table to the list, up to its limit.
func (l *pageList) put(table [][]uint32) {
	full := 0
	for _, p := range table {
		if cap(p) == pageSlots {
			l.pages = append(l.pages, p)
			full++
		}
	}
	l.limit = max(l.limit, full)
	if len(l.pages) > l.limit {
		clear(l.pages[l.limit:])
		l.pages = l.pages[:l.limit]
	}
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
		} else if lo != hi || !st.point(lo) {
			st.update(lo, hi, &r.free)
		}
	}
}

// startAPI closes the previous API and opens rec's, with its map-mode
// decision.
func (r *Recorder) startAPI(rec *gpu.APIRecord) {
	r.finalizeAPI()
	r.curAPI = rec.Index
	r.curKernel = rec.Name
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
		st.beginAPI()
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

// newObjState creates object o's state at its first touch, with an empty
// page table and its bitmaps taken from the spare when they fit: the
// spare's cumulative bitmap is cleared over the words the object uses,
// and its per-API bitmap is clean, since finalization wipes what each
// API set.
func (r *Recorder) newObjState(o *trace.Object) *objState {
	elems := o.Elems()
	st := &objState{obj: o, elems: elems, freq: make([][]uint32, elems>>pageShift+1)}
	if sp := r.spare; sp.total != nil && cap(sp.total.words) >= (elems+63)/64 {
		st.total = sp.total.resize(elems)
		clear(st.total.words)
		st.curTouched = sp.touched.resize(elems)
		r.spare = spareMaps{}
	} else {
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
func (st *objState) beginAPI() {
	st.curLo, st.curHi = st.elems, -1
	st.curTotal = 0
	st.base = st.obj.Ptr
	st.es = st.obj.ElemWidth()
	st.shift = -1
	if st.es&(st.es-1) == 0 {
		st.shift = int8(bits.TrailingZeros64(st.es))
	}
	st.curActive = true
	st.spill = st.spill[:0]
}

// point applies a pointwise access to element lo when both its slots
// fall on the cached page, and reports whether they did: two stores, one
// add to the API's total and one bitmap bit, with no page-table read.
// It is small enough to inline into the ingest loop. A page holds no
// slot past elems, so both slots on the page put lo within the object.
func (st *objState) point(lo int) bool {
	p, i := st.page, lo-st.pageLo
	if i < 0 || i >= len(p)-1 {
		return false
	}
	p[i]++
	p[i+1]--
	st.curTotal++
	st.curTouched.words[lo>>6] |= 1 << (uint(lo) & 63)
	st.curLo = min(st.curLo, lo)
	st.curHi = max(st.curHi, lo)
	return true
}

// update applies one access covering elements [lo, hi], clamped to the
// object, to the maps: two difference-array stores, one add to the API's
// total and one word-level bitmap range set, independent of the access
// width. The stores go to the cached page when both slots fall on it, and
// otherwise through the page table, after which the end marker's page,
// where a sweep's next access starts, is the cached page. Pages come from
// free when it holds one.
func (st *objState) update(lo, hi int, free *pageList) {
	if lo < 0 {
		lo = 0
	}
	if hi >= st.elems {
		hi = st.elems - 1
	}
	if lo > hi {
		return
	}
	end := hi + 1
	if p, i, j := st.page, lo-st.pageLo, end-st.pageLo; i >= 0 && j < len(p) {
		p[i]++
		p[j]--
	} else {
		st.mark(lo, end, free)
		st.page, st.pageLo = st.freq[end>>pageShift], end&^pageMask
	}
	st.curTotal += uint64(hi - lo + 1)
	st.curTouched.SetRange(lo, hi)
	st.curLo = min(st.curLo, lo)
	st.curHi = max(st.curHi, hi)
}

// mark adds one to slot lo and subtracts one from slot end, first
// allocating every missing page from lo's through end's, so that a page
// no range reaches stays unallocated and summarize can skip it.
func (st *objState) mark(lo, end int, free *pageList) {
	first, last := lo>>pageShift, end>>pageShift
	for k := first; k <= last; k++ {
		if st.freq[k] == nil {
			st.freq[k] = free.get(min(pageSlots, st.elems+1-k<<pageShift))
		}
	}
	st.freq[first][lo&pageMask]++
	st.freq[last][end&pageMask]--
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
		spills, words := r.finalizeObj(st)
		r.spillTotal += spills
		r.wordTotal += words
	}
	r.active = r.active[:0]
	sp.End()
}

// finalizeObj closes out one object's per-API maps and returns the spill
// and bitmap-word counts it consumed, which finalizeAPI accumulates.
func (r *Recorder) finalizeObj(st *objState) (spills, words uint64) {
	spills = uint64(len(st.spill))
	for _, s := range st.spill {
		if s.lo != s.hi || !st.point(s.lo) {
			st.update(s.lo, s.hi, &r.free)
		}
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
		st.hotKernel = r.curKernel
		st.lastAPI = r.curAPI
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
