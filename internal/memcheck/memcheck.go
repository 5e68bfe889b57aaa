// Package memcheck is a memory-safety checker over the simulated GPU — the
// compute-sanitizer memcheck analog built on the same Sanitizer-style hook
// surface the profiler uses (API callbacks + per-instruction access batches).
//
// It detects four bug classes:
//
//   - out-of-bounds kernel accesses, made observable by red zones the
//     allocator reserves around every allocation (gpu.Allocator.SetRedzone):
//     a small overflow lands in guard space and faults instead of silently
//     corrupting the neighboring allocation;
//   - use-after-free, made observable by a bounded FIFO quarantine of freed
//     spans (gpu.Allocator.SetQuarantine): a stale pointer keeps faulting
//     until the quarantine recycles its span;
//   - reads of device bytes never written, tracked by a per-allocation
//     written-shadow bitmap (intraobj.Bitmap at byte granularity);
//   - allocations never freed, scanned when Report is taken.
//
// Every issue carries the allocating (and where relevant freeing and
// accessing) host call paths from internal/callpath, and the report renders
// deterministically: issues are deduplicated under stable keys, sorted, and
// byte-identical across runs.
//
// It serves drgpum -memcheck, the zero-false-positive gate, and Table 5's
// Compute Sanitizer column, which maps issues to patterns by Class.ID.
package memcheck

import (
	"sort"

	"drgpum/internal/callpath"
	"drgpum/internal/gpu"
	"drgpum/internal/intraobj"
	"drgpum/internal/obs"
	"drgpum/internal/pattern"
)

// Config controls the checker.
type Config struct {
	// Redzone is the guard-byte count reserved on each side of every
	// allocation (rounded up to the device alignment). Zero disables red
	// zones, which blinds the checker to overflows smaller than the
	// allocator's alignment padding.
	Redzone uint64
	// QuarantineBytes bounds the freed-span quarantine. Zero disables it,
	// which blinds the checker to use-after-free once an address is reused.
	QuarantineBytes uint64
	// UninitReads enables the written-shadow check for reads of bytes never
	// written. It needs per-instruction accesses (gpu.PatchFull); at lower
	// patch levels it is inert.
	UninitReads bool
}

// DefaultConfig returns the recommended configuration: one alignment unit of
// red zone, a 1 MiB quarantine, and uninitialized-read checking on.
func DefaultConfig() Config {
	return Config{Redzone: 256, QuarantineBytes: 1 << 20, UninitReads: true}
}

// Class is an issue class.
type Class uint8

const (
	// ClassOOB is an out-of-bounds kernel access.
	ClassOOB Class = iota
	// ClassUseAfterFree is a kernel access to a freed, quarantined range.
	ClassUseAfterFree
	// ClassUninitRead is a kernel read of bytes never written.
	ClassUninitRead
	// ClassLeak is an allocation still live when the report was taken.
	ClassLeak
)

// String names the class as it appears in reports.
func (c Class) String() string {
	switch c {
	case ClassOOB:
		return "out-of-bounds"
	case ClassUseAfterFree:
		return "use-after-free"
	case ClassUninitRead:
		return "uninitialized read"
	default:
		return "leak"
	}
}

// ID returns the stable kebab-case identifier memcheck issues use in the
// shared JSON schema (the same "id" vocabulary as pattern.Pattern.ID).
// ClassLeak deliberately maps to the dynamic profiler's "memory-leak" —
// both report the same defect, so they share one identifier.
func (c Class) ID() string {
	switch c {
	case ClassOOB:
		return "out-of-bounds"
	case ClassUseAfterFree:
		return "use-after-free"
	case ClassUninitRead:
		return "uninitialized-read"
	default:
		return pattern.MemoryLeak.ID()
	}
}

// Severity maps every memcheck class onto the shared three-level scale:
// memory-safety issues are definite defects, never advisory.
func (c Class) Severity() pattern.SeverityClass { return pattern.SeverityError }

// allocation is the checker's view of one driver allocation.
type allocation struct {
	ptr   gpu.DevicePtr
	size  uint64
	seq   uint64 // 1-based observation order
	label string

	allocPath callpath.PathID
	freePath  callpath.PathID
	freed     bool

	// shadow marks which bytes of the allocation have ever been written
	// (nil when uninitialized-read checking is off).
	shadow *intraobj.Bitmap
}

func (a *allocation) end() gpu.DevicePtr { return a.ptr + gpu.DevicePtr(a.size) }

// issueKey deduplicates repeated occurrences of the same logical bug: all
// faults of one class on one allocation from one kernel fold into one issue.
type issueKey struct {
	class  Class
	seq    uint64 // allocation sequence number; 0 for wild accesses
	kernel string
	kind   gpu.AccessKind
}

// issue is the internal accumulating form; Report resolves it into Issue.
type issue struct {
	key        issueKey
	addr       gpu.DevicePtr // first occurrence
	accessSize uint32
	count      uint64
	unwritten  uint64 // uninitialized read: unwritten bytes at first read
	obj        *allocation
	accessPath callpath.PathID
}

// pendingUninit accumulates uninitialized reads observed from access batches
// of the in-flight kernel, which are delivered before the kernel's own API
// record (where the launch call path is captured).
type pendingUninit struct {
	alloc     *allocation
	addr      gpu.DevicePtr
	size      uint32
	count     uint64
	unwritten uint64
}

// Checker observes a device and accumulates memory-safety issues. It is a
// gpu.Hook; like the trace collector it is driven synchronously from the
// application goroutine and is not safe for concurrent use.
type Checker struct {
	dev   *gpu.Device
	cfg   Config
	paths *callpath.Unwinder

	allocs map[gpu.DevicePtr]*allocation // live, by user base pointer
	frees  map[gpu.DevicePtr]*allocation // most recently freed at each base
	order  []*allocation                 // every observed allocation, in order
	live   []*allocation                 // live, sorted by address
	last   *allocation                   // last-hit cache for find

	issues  map[issueKey]*issue
	pending map[*allocation]*pendingUninit

	checked uint64 // kernel reads checked against shadows
	freeLog uint64 // frees observed

	// scanNode times the Report leak scan under memcheck/scan when a
	// self-observability recorder is installed (nil otherwise).
	scanNode *obs.Node
}

// SetObs installs a self-observability recorder: taking a Report records a
// span under memcheck/scan. Inert with a nil or disabled recorder.
func (c *Checker) SetObs(rec *obs.Recorder) {
	if root := rec.Root(); root != nil {
		c.scanNode = root.Child("memcheck").Child("scan")
	}
}

// Attach configures the device's allocator for checking (red zone,
// quarantine) and registers the checker as a hook. It must be called before
// the application's first allocation — the allocator refuses to change its
// red zone once blocks exist — and the device must run at gpu.PatchAPI or
// higher for the checker to observe anything (gpu.PatchFull for the
// uninitialized-read check).
func Attach(dev *gpu.Device, cfg Config) *Checker {
	if cfg.Redzone > 0 {
		dev.Allocator().SetRedzone(cfg.Redzone)
	}
	if cfg.QuarantineBytes > 0 {
		dev.Allocator().SetQuarantine(cfg.QuarantineBytes)
	}
	c := &Checker{
		dev:     dev,
		cfg:     cfg,
		paths:   callpath.NewUnwinder(),
		allocs:  make(map[gpu.DevicePtr]*allocation),
		frees:   make(map[gpu.DevicePtr]*allocation),
		issues:  make(map[issueKey]*issue),
		pending: make(map[*allocation]*pendingUninit),
	}
	dev.AddHook(c)
	return c
}

// Annotate attaches a label to the live allocation at ptr, so reports name
// objects the way the application thinks of them.
func (c *Checker) Annotate(ptr gpu.DevicePtr, label string) {
	if a := c.allocs[ptr]; a != nil {
		a.label = label
	}
}

// OnAPI implements gpu.Hook. Like the trace collector's, its captured
// paths lead with the application's call into the GPU API.
func (c *Checker) OnAPI(rec *gpu.APIRecord) {
	switch rec.Kind {
	case gpu.APIMalloc:
		if rec.Custom {
			return // pool tensors live inside tracked segments
		}
		a := &allocation{
			ptr:       rec.Ptr,
			size:      rec.Size,
			seq:       uint64(len(c.order)) + 1,
			allocPath: c.paths.Capture(),
		}
		if c.cfg.UninitReads {
			a.shadow = intraobj.NewBitmap(int(rec.Size))
		}
		c.order = append(c.order, a)
		c.allocs[a.ptr] = a
		c.insertLive(a)
	case gpu.APIFree:
		if rec.Custom {
			return
		}
		a := c.allocs[rec.Ptr]
		if a == nil {
			return
		}
		a.freed = true
		a.freePath = c.paths.Capture()
		delete(c.allocs, rec.Ptr)
		c.removeLive(a)
		c.frees[a.ptr] = a
		c.freeLog++
	case gpu.APIMemcpy, gpu.APIMemset:
		c.markWritten(rec.Writes)
	case gpu.APIKernel:
		launch := c.paths.Capture()
		if !rec.Instrumented {
			// No per-access stream for this launch: mark the kernel's
			// object-granularity write set so later reads of those objects
			// are not reported (conservative, never a false positive).
			c.markWritten(rec.Writes)
		}
		c.classifyFaults(rec, launch)
		c.drainPending(rec, launch)
	}
}

// OnAccessBatch implements gpu.Hook: it maintains the written shadows from
// instrumented kernel stores and checks loads against them. Batches arrive
// in execution order, so a store followed by a load of the same bytes within
// one kernel is correctly clean.
func (c *Checker) OnAccessBatch(rec *gpu.APIRecord, batch []gpu.MemAccess) {
	if !c.cfg.UninitReads {
		return
	}
	for i := range batch {
		m := &batch[i]
		if m.Space != gpu.SpaceGlobal {
			continue
		}
		a := c.find(m.Addr)
		if a == nil || a.shadow == nil {
			continue // out-of-bounds accesses are classified via rec.Faults
		}
		lo := int(m.Addr - a.ptr)
		hi := lo + int(m.Size) - 1
		if hi >= int(a.size) {
			hi = int(a.size) - 1 // straddling access; the spill is a fault
		}
		if m.Kind == gpu.AccessWrite {
			a.shadow.SetRange(lo, hi)
			continue
		}
		c.checked++
		if a.shadow.AllSet(lo, hi) {
			continue
		}
		p := c.pending[a]
		if p == nil {
			p = &pendingUninit{
				alloc:     a,
				addr:      m.Addr,
				size:      m.Size,
				unwritten: a.size - uint64(a.shadow.Count()),
			}
			c.pending[a] = p
		}
		p.count++
	}
}

// classifyFaults attributes a kernel's out-of-bounds faults to allocations.
// A faulting address inside a quarantined span is a use-after-free; inside a
// live reserved span (red zone, alignment padding, or a straddling access
// that started in bounds) it is an out-of-bounds access on that allocation;
// anywhere else it is a wild access, reported without an object.
func (c *Checker) classifyFaults(rec *gpu.APIRecord, launch callpath.PathID) {
	if len(rec.Faults) == 0 {
		return
	}
	alloc := c.dev.Allocator()
	for _, f := range rec.Faults {
		if q, ok := alloc.InQuarantine(f.Addr); ok {
			c.record(issueKey{class: ClassUseAfterFree, seq: seqOf(c.frees[q.Addr]), kernel: rec.Name, kind: f.Kind},
				f.Addr, f.Size, c.frees[q.Addr], launch)
			continue
		}
		if r, ok := alloc.FindNear(f.Addr); ok {
			c.record(issueKey{class: ClassOOB, seq: seqOf(c.allocs[r.Addr]), kernel: rec.Name, kind: f.Kind},
				f.Addr, f.Size, c.allocs[r.Addr], launch)
			continue
		}
		c.record(issueKey{class: ClassOOB, kernel: rec.Name, kind: f.Kind}, f.Addr, f.Size, nil, launch)
	}
}

// record folds one fault occurrence into its issue.
func (c *Checker) record(key issueKey, addr gpu.DevicePtr, size uint32, obj *allocation, launch callpath.PathID) {
	is := c.issues[key]
	if is == nil {
		is = &issue{key: key, addr: addr, accessSize: size, obj: obj, accessPath: launch}
		c.issues[key] = is
	}
	is.count++
}

// drainPending converts uninitialized reads accumulated from the in-flight
// kernel's access batches into issues, now that the kernel's API record (and
// with it the launch call path) exists.
func (c *Checker) drainPending(rec *gpu.APIRecord, launch callpath.PathID) {
	if len(c.pending) == 0 {
		return
	}
	var ps []*pendingUninit
	for _, p := range c.pending {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].alloc.seq < ps[j].alloc.seq })
	for _, p := range ps {
		key := issueKey{class: ClassUninitRead, seq: p.alloc.seq, kernel: rec.Name, kind: gpu.AccessRead}
		is := c.issues[key]
		if is == nil {
			is = &issue{key: key, addr: p.addr, accessSize: p.size, obj: p.alloc,
				accessPath: launch, unwritten: p.unwritten}
			c.issues[key] = is
		}
		is.count += p.count
	}
	c.pending = make(map[*allocation]*pendingUninit)
}

// find returns the live allocation containing addr, with a last-hit cache in
// front of the binary search (kernel access streams are heavily clustered).
func (c *Checker) find(addr gpu.DevicePtr) *allocation {
	if a := c.last; a != nil && addr >= a.ptr && addr < a.end() {
		return a
	}
	i := sort.Search(len(c.live), func(i int) bool { return c.live[i].ptr > addr })
	if i == 0 {
		return nil
	}
	a := c.live[i-1]
	if addr >= a.end() {
		return nil
	}
	c.last = a
	return a
}

// markWritten marks the bytes of ranges as written on every overlapping live
// allocation. Copy and set records carry exact ranges; non-instrumented
// kernel records carry object-granularity ranges (and pool-tensor ranges
// when a custom memory map is installed, which this intersection maps back
// onto the backing segment).
func (c *Checker) markWritten(ranges []gpu.Range) {
	for _, r := range ranges {
		if r.Size == 0 {
			continue
		}
		i := sort.Search(len(c.live), func(i int) bool { return c.live[i].end() > r.Addr })
		for ; i < len(c.live) && c.live[i].ptr < r.End(); i++ {
			a := c.live[i]
			if a.shadow == nil {
				continue
			}
			lo := 0
			if r.Addr > a.ptr {
				lo = int(r.Addr - a.ptr)
			}
			hi := int(a.size) - 1
			if r.End() < a.end() {
				hi = int(r.End()-a.ptr) - 1
			}
			a.shadow.SetRange(lo, hi)
		}
	}
}

// insertLive keeps the live slice sorted by address.
func (c *Checker) insertLive(a *allocation) {
	i := sort.Search(len(c.live), func(i int) bool { return c.live[i].ptr > a.ptr })
	c.live = append(c.live, nil)
	copy(c.live[i+1:], c.live[i:])
	c.live[i] = a
}

// removeLive drops a from the live slice and invalidates the cache.
func (c *Checker) removeLive(a *allocation) {
	i := sort.Search(len(c.live), func(i int) bool { return c.live[i].ptr >= a.ptr })
	if i < len(c.live) && c.live[i] == a {
		c.live = append(c.live[:i], c.live[i+1:]...)
	}
	if c.last == a {
		c.last = nil
	}
}

// seqOf is a nil-tolerant allocation sequence accessor (0 = no object).
func seqOf(a *allocation) uint64 {
	if a == nil {
		return 0
	}
	return a.seq
}
