package gpu

import (
	"encoding/binary"
	"math"

	"drgpum/internal/costmodel"
)

// Kernel is simulated device code. Run is invoked once per launch and must
// perform all of the kernel's memory traffic through the ExecContext so the
// instrumentation layer can observe it.
type Kernel interface {
	// Name identifies the kernel in traces and reports (the mangled-symbol
	// analog).
	Name() string
	// Run executes the kernel body.
	Run(ctx *ExecContext)
}

// KernelFunc adapts a function to the Kernel interface.
type KernelFunc struct {
	// KernelName is the reported kernel name.
	KernelName string
	// Body is the kernel body.
	Body func(ctx *ExecContext)
}

// Name returns the kernel name.
func (k KernelFunc) Name() string { return k.KernelName }

// Run invokes the body.
func (k KernelFunc) Run(ctx *ExecContext) { k.Body(ctx) }

// hitEntry is one row of the device-resident object table of paper Figure 5:
// an address range plus read/write hit flags. blk is the live allocation
// whose user bytes hold the whole range (nil when none does), so the row
// that resolves an access also yields its backing bytes. tag is the
// provider's object tag for the row, kept only when the rows are pairwise
// disjoint (0 otherwise), so the row also names the access's object.
type hitEntry struct {
	rng      Range
	blk      *block
	tag      uint32
	readHit  bool
	writeHit bool
}

// rowSlot is a copy of one resolved hit-table row in a launch's
// resolution cache. uint64(addr-base) < size is its whole containment
// test: an address below base wraps to a value above any size, and an
// empty slot (size 0) contains nothing.
type rowSlot struct {
	base DevicePtr
	size uint64
	row  int
	blk  *block
}

// ExecContext is the device-side execution environment handed to a kernel.
// All loads and stores must go through it; it performs bounds resolution,
// charges the cost model, maintains hit flags (object-level analysis) and
// streams access records (intra-object analysis, and the cost model's own
// records while pipelined ingest is armed).
type ExecContext struct {
	dev *Device
	rec *APIRecord

	grid  Dim3
	block Dim3

	// snapshot of the memory map at launch time, sorted by address.
	table []hitEntry
	// slots caches the rows recent binary searches returned; resolve
	// probes them before searching. A search hit fills slot next&slotMask.
	// slotMask is 3 when the rows are pairwise disjoint, so an address
	// lies in at most one row and any slot holding it is the answer. It
	// is 0 when rows overlap (a pool's tensors inside its still-listed
	// segment), which keeps the cache to slot 0: the last row a search
	// returned, checked before the search, the rule that decides which of
	// two overlapping rows an address resolves to.
	slots    [4]rowSlot
	next     uint8
	slotMask uint8

	instrumented bool
	hostTrace    bool // ObjectIDHostTrace mode: ship every access to the host
	// hooks is set when the launch's records reach the hooks: the launch
	// is instrumented or host-trace.
	hooks bool
	// rows is set when every access that resolves to a row is recorded:
	// the launch is instrumented, or costRecs is set.
	rows bool
	// tagged is set when the rows are disjoint and each carries the
	// provider's tag; stray is set once an access recorded for the hooks
	// resolved to no row. A launch may complete asynchronously only when
	// tagged is set and stray is not.
	tagged bool
	stray  bool
	// reset is set while the tracker's reset for this launch is still to
	// be handed to the consumer with the launch's first task.
	reset bool

	// cost, when non-nil, runs the memory-hierarchy cost model inline over
	// this launch's accesses, keyed by hit-table entry (see
	// Device.SetCostModel). costRecs, when non-nil, is the same tracker
	// charged from the launch's access records instead, on the pipeline
	// consumer for full batches (see pipeline.go). At most one is set.
	cost     *costmodel.Tracker
	costRecs *costmodel.Tracker

	shared []byte

	accessCycles  uint64
	computeCycles uint64
}

// Grid returns the launch grid dimensions.
func (c *ExecContext) Grid() Dim3 { return c.grid }

// Block returns the launch block dimensions.
func (c *ExecContext) Block() Dim3 { return c.block }

// Threads returns the total number of threads in the launch.
func (c *ExecContext) Threads() int { return c.grid.Count() * c.block.Count() }

// Compute charges pure-ALU work to the kernel's simulated duration. Kernels
// use it to model the non-memory part of their cost so that memory
// optimizations produce realistic (not unbounded) speedups.
func (c *ExecContext) Compute(cycles uint64) { c.computeCycles += cycles }

// ComputeF32 charges n single-precision operations at the device's FP32
// rate.
func (c *ExecContext) ComputeF32(n uint64) { c.computeCycles += n * c.dev.spec.FP32Cycles }

// ComputeF64 charges n double-precision operations at the device's FP64
// rate.
func (c *ExecContext) ComputeF64(n uint64) { c.computeCycles += n * c.dev.spec.FP64Cycles }

// SharedAlloc reserves n bytes of per-launch shared memory and returns its
// base offset. Shared memory is zero-initialized and discarded at kernel end.
func (c *ExecContext) SharedAlloc(n int) int {
	off := len(c.shared)
	c.shared = append(c.shared, make([]byte, n)...)
	return off
}

// loadTable copies the memory map into the hit table ("copy M to the GPU
// at each kernel launch", paper Figure 5) and attaches each row's backing
// allocation in one merge walk over the address-ordered rows and blocks.
// A row gets a block only if the block's user bytes hold all of it, so
// every address the row resolves lies in that block; any other row, and
// any address outside every row, falls back to Allocator.lookup. It also
// records whether the rows are pairwise disjoint (see slotMask), and only
// then keeps the rows' tags: with disjoint rows the row an address
// resolves to is the one row holding it, so its tag names the object.
func (c *ExecContext) loadTable(live []Range, tags []uint32, blocks []*block) {
	c.table = make([]hitEntry, len(live))
	c.slotMask = 3
	j := 0
	for i, r := range live {
		for j < len(blocks) && blocks[j].addr <= r.Addr {
			j++
		}
		c.table[i].rng = r
		if j > 0 {
			b := blocks[j-1]
			if off := uint64(r.Addr - b.addr); off <= b.req && r.Size <= b.req-off {
				c.table[i].blk = b
			}
		}
		if i > 0 && uint64(r.Addr-live[i-1].Addr) < live[i-1].Size {
			c.slotMask = 0
		}
	}
	if c.slotMask != 0 {
		for i := range min(len(tags), len(c.table)) {
			c.table[i].tag = tags[i]
		}
		c.tagged = tags != nil && len(tags) >= len(c.table)
	}
}

// resolve returns the hit-table row containing addr and the row's backing
// allocation, or -1 and nil when no row contains it. It probes the slots
// and binary-searches the table, the device-side search of paper Figure
// 5, only on a miss. With disjoint rows the answer depends on addr alone;
// with overlapping rows it is the last row a search returned if that row
// contains addr, else the row before the first one starting above addr.
func (c *ExecContext) resolve(addr DevicePtr) (int, *block) {
	for k := range c.slots {
		if s := &c.slots[k]; uint64(addr-s.base) < s.size {
			return s.row, s.blk
		}
	}
	lo, hi := 0, len(c.table)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.table[mid].rng.Addr > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 || !c.table[lo-1].rng.Contains(addr) {
		return -1, nil
	}
	e := &c.table[lo-1]
	c.slots[c.next&c.slotMask] = rowSlot{base: e.rng.Addr, size: e.rng.Size, row: lo - 1, blk: e.blk}
	c.next++
	return lo - 1, e.blk
}

// backing returns the bytes [addr, addr+size) of block b, or nil after
// recording a fault when b is nil or does not hold them all.
func (c *ExecContext) backing(b *block, addr DevicePtr, size uint32, kind AccessKind) []byte {
	if b == nil || uint64(addr-b.addr)+uint64(size) > b.req {
		c.rec.Faults = append(c.rec.Faults, Fault{Addr: addr, Size: size, Kind: kind})
		return nil
	}
	off := uint64(addr - b.addr)
	return b.data[off : off+uint64(size)]
}

// access performs bookkeeping common to every load/store and returns the
// backing slice for the accessed bytes (nil on an out-of-bounds access).
// Native and host-trace accesses find their bytes with Allocator.lookup. A
// profiled access resolves its hit-table row once, and the row gives the
// hit flag, the cost-model entry, the backing bytes and the record's object
// tag and row.
func (c *ExecContext) access(addr DevicePtr, size uint32, kind AccessKind) []byte {
	c.accessCycles += c.dev.spec.GlobalLatency
	if c.dev.patch == PatchNone {
		return c.backing(c.dev.alloc.lookup(addr), addr, size, kind)
	}
	if c.hostTrace {
		data := c.backing(c.dev.alloc.lookup(addr), addr, size, kind)
		if c.dev.pushAccess(addr, size, kind, SpaceGlobal, 0, 0) {
			c.flush()
		}
		return data
	}
	i, b := c.resolve(addr)
	if b == nil {
		b = c.dev.alloc.lookup(addr)
	}
	data := c.backing(b, addr, size, kind)
	if i < 0 {
		if c.instrumented {
			c.stray = true
			if c.dev.pushAccess(addr, size, kind, SpaceGlobal, 0, 0) {
				c.flush()
			}
		}
		return data
	}
	e := &c.table[i]
	if kind == AccessRead {
		e.readHit = true
	} else {
		e.writeHit = true
	}
	if c.rows && c.dev.pushAccess(addr, size, kind, SpaceGlobal, e.tag, int32(i)+1) {
		c.flush()
	}
	if c.cost != nil {
		c.cost.Access(i, uint64(addr), size)
	}
	return data
}

// sharedAccess charges and (at PatchFull) records a shared-memory access.
func (c *ExecContext) sharedAccess(off int, size uint32, kind AccessKind) {
	c.accessCycles += c.dev.spec.SharedLatency
	if c.instrumented && c.dev.pushAccess(DevicePtr(off), size, kind, SpaceShared, 0, 0) {
		c.flush()
	}
}

// flush delivers the launch's full access buffer. With pipelined ingest
// armed the batch is handed to the consumer goroutine, which charges
// costRecs, when non-nil, from the batch and runs the hooks when hooks is
// set, and the device keeps simulating into a recycled buffer; otherwise
// the hooks run inline (an unarmed device charges the model inline, so
// costRecs is nil there). Only batches for the hooks are counted.
func (c *ExecContext) flush() {
	d := c.dev
	if c.hooks {
		d.pipeStats.Batches++
	}
	if p := d.pipe; p != nil {
		d.batch = p.send(c.task(d.batch))
		return
	}
	d.deliverAccesses(c.rec)
	d.batch = d.batch[:0]
}

// task builds the hand-off of batch, carrying the tracker's reset when it
// is the launch's first task.
func (c *ExecContext) task(batch []MemAccess) pipeTask {
	t := pipeTask{rec: c.rec, batch: batch, cost: c.costRecs, hooks: c.hooks}
	if c.reset {
		t.reset, t.rows, c.reset = true, len(c.table), false
	}
	return t
}

// Read copies len(buf) bytes from device memory into buf. Out-of-bounds
// reads yield zeros and record a fault.
func (c *ExecContext) Read(addr DevicePtr, buf []byte) {
	data := c.access(addr, uint32(len(buf)), AccessRead)
	if data != nil {
		copy(buf, data)
	} else {
		for i := range buf {
			buf[i] = 0
		}
	}
}

// Write copies buf into device memory. Out-of-bounds writes are dropped and
// record a fault.
func (c *ExecContext) Write(addr DevicePtr, buf []byte) {
	data := c.access(addr, uint32(len(buf)), AccessWrite)
	if data != nil {
		copy(data, buf)
	}
}

// LoadF64 loads a float64 from device memory.
func (c *ExecContext) LoadF64(addr DevicePtr) float64 {
	data := c.access(addr, 8, AccessRead)
	if data == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(data))
}

// StoreF64 stores a float64 to device memory.
func (c *ExecContext) StoreF64(addr DevicePtr, v float64) {
	data := c.access(addr, 8, AccessWrite)
	if data != nil {
		binary.LittleEndian.PutUint64(data, math.Float64bits(v))
	}
}

// LoadF32 loads a float32 from device memory.
func (c *ExecContext) LoadF32(addr DevicePtr) float32 {
	data := c.access(addr, 4, AccessRead)
	if data == nil {
		return 0
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(data))
}

// StoreF32 stores a float32 to device memory.
func (c *ExecContext) StoreF32(addr DevicePtr, v float32) {
	data := c.access(addr, 4, AccessWrite)
	if data != nil {
		binary.LittleEndian.PutUint32(data, math.Float32bits(v))
	}
}

// LoadU32 loads a uint32 from device memory.
func (c *ExecContext) LoadU32(addr DevicePtr) uint32 {
	data := c.access(addr, 4, AccessRead)
	if data == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(data)
}

// StoreU32 stores a uint32 to device memory.
func (c *ExecContext) StoreU32(addr DevicePtr, v uint32) {
	data := c.access(addr, 4, AccessWrite)
	if data != nil {
		binary.LittleEndian.PutUint32(data, v)
	}
}

// LoadU8 loads one byte from device memory.
func (c *ExecContext) LoadU8(addr DevicePtr) byte {
	data := c.access(addr, 1, AccessRead)
	if data == nil {
		return 0
	}
	return data[0]
}

// StoreU8 stores one byte to device memory.
func (c *ExecContext) StoreU8(addr DevicePtr, v byte) {
	data := c.access(addr, 1, AccessWrite)
	if data != nil {
		data[0] = v
	}
}

// SharedLoadF64 loads a float64 from shared memory at byte offset off.
func (c *ExecContext) SharedLoadF64(off int) float64 {
	c.sharedAccess(off, 8, AccessRead)
	return math.Float64frombits(binary.LittleEndian.Uint64(c.shared[off:]))
}

// SharedStoreF64 stores a float64 to shared memory at byte offset off.
func (c *ExecContext) SharedStoreF64(off int, v float64) {
	c.sharedAccess(off, 8, AccessWrite)
	binary.LittleEndian.PutUint64(c.shared[off:], math.Float64bits(v))
}

// SharedLoadF32 loads a float32 from shared memory at byte offset off.
func (c *ExecContext) SharedLoadF32(off int) float32 {
	c.sharedAccess(off, 4, AccessRead)
	return math.Float32frombits(binary.LittleEndian.Uint32(c.shared[off:]))
}

// SharedStoreF32 stores a float32 to shared memory at byte offset off.
func (c *ExecContext) SharedStoreF32(off int, v float32) {
	c.sharedAccess(off, 4, AccessWrite)
	binary.LittleEndian.PutUint32(c.shared[off:], math.Float32bits(v))
}

// pushAccess appends an access to the simulated device-side buffer and
// reports whether the buffer is now full, in which case the caller flushes
// it (paper §5.5: records are copied to the CPU when the buffer is full).
// Leaving the flush to the caller keeps pushAccess small enough to inline
// into every access. The fields are stored straight into the buffer: a
// record built on the stack and copied in is reloaded by one wide load
// right after its narrow field stores, which stalls on store forwarding.
func (d *Device) pushAccess(addr DevicePtr, size uint32, kind AccessKind, space MemSpace, tag uint32, row int32) bool {
	n := len(d.batch)
	d.batch = d.batch[:n+1]
	a := &d.batch[n]
	a.Addr, a.Size, a.Kind, a.Space, a.Tag, a.row = addr, size, kind, space, tag, row
	return n+1 == cap(d.batch)
}

// deliverAccesses runs the hooks over the buffered accesses on the
// simulating goroutine.
func (d *Device) deliverAccesses(rec *APIRecord) {
	for _, h := range d.hooks {
		h.OnAccessBatch(rec, d.batch)
	}
}

// chargeBatch charges the cost model with every record of batch that
// resolved to a hit-table row, in record order: the sequence the inline
// path charges access by access.
func chargeBatch(t *costmodel.Tracker, batch []MemAccess) {
	for i := range batch {
		if a := &batch[i]; a.row != 0 {
			t.Access(int(a.row-1), uint64(a.Addr), a.Size)
		}
	}
}

// completeSync completes a launch on the simulating goroutine: it drains
// the pipeline, which runs every full batch the launch handed off, then
// resets the tracker if no task carried the reset, charges the tracker,
// when non-nil, from the tail, runs the hooks over the tail when the
// launch's records are theirs, and closes the launch's cost record.
func (d *Device) completeSync(c *ExecContext, tracker *costmodel.Tracker) {
	d.pipe.drain()
	if c.reset {
		tracker.Reset(len(c.table))
	}
	if len(d.batch) > 0 {
		if c.costRecs != nil {
			chargeBatch(c.costRecs, d.batch)
		}
		if c.hooks {
			d.deliverAccesses(c.rec)
		}
		d.batch = d.batch[:0]
	}
	if tracker != nil {
		c.rec.Cost = closeCost(tracker, c.table)
	}
}

// completeAsync hands the launch's tail and, with the cost model on, the
// closing of its cost record to the consumer, and returns without
// waiting. The queued table keeps the rows' ranges and tags but drops
// their blocks, so a queued launch keeps no freed device memory alive.
func (d *Device) completeAsync(c *ExecContext, tracker *costmodel.Tracker) {
	var batch []MemAccess
	if len(d.batch) > 0 {
		batch = d.batch
	}
	t := c.task(batch)
	if tracker != nil {
		for i := range c.table {
			c.table[i].blk = nil
		}
		t.table = c.table
	}
	switch {
	case batch != nil:
		d.batch = d.pipe.send(t)
	case t.table != nil:
		d.pipe.put(t)
	}
}

// closeCost flushes the tracker and returns the launch's cost record,
// with each entry's base taken from its hit-table row.
func closeCost(t *costmodel.Tracker, table []hitEntry) *costmodel.KernelCost {
	return t.Finish(func(i int) uint64 { return uint64(table[i].rng.Addr) })
}

// Launch runs a kernel on the given stream (nil means the default stream).
// The launch is "asynchronous" in the simulated-clock sense: it only advances
// its own stream's clock. The kernel body executes immediately on the calling
// goroutine, which keeps the simulator deterministic. With pipelined ingest
// armed and only AsyncHooks registered, the ingest of the launch's last
// accesses may still be running on the consumer when Launch returns (see
// pipeline.go).
func (d *Device) Launch(stream *Stream, k Kernel, grid, block Dim3) error {
	if stream == nil {
		stream = d.defaultStream
	}
	rec := d.newRecord(APIKernel, k.Name(), stream.id)
	rec.Grid, rec.Block = grid, block

	launchNo := d.kernelLaunch[k.Name()]
	d.kernelLaunch[k.Name()] = launchNo + 1

	ctx := &ExecContext{
		dev:   d,
		rec:   rec,
		grid:  grid,
		block: block,
	}
	var tracker *costmodel.Tracker
	if d.patch >= PatchAPI {
		if d.objectID == ObjectIDHostTrace {
			ctx.hostTrace = true
		} else {
			// "Copy M to the GPU at each kernel launch and associate each
			// entry with a hit flag" (paper Figure 5).
			var live []Range
			var tags []uint32
			if d.liveRanges != nil {
				live, tags = d.liveRanges()
			} else {
				live = d.alloc.Live()
			}
			ctx.loadTable(live, tags, d.alloc.blocks)
			if d.costTracker != nil && len(ctx.table) > 0 {
				tracker = d.costTracker
				// The consumer may still be charging an earlier launch:
				// then the launch's first task carries the reset.
				if d.pipe.idle() {
					tracker.Reset(len(ctx.table))
				} else {
					ctx.reset = true
				}
			}
		}
		if d.patch == PatchFull {
			ctx.instrumented = d.instrument == nil || d.instrument(k.Name(), launchNo)
			rec.Instrumented = ctx.instrumented
		}
		// With pipelined ingest armed the model is charged from the
		// launch's records, on the consumer for every full batch;
		// otherwise inline, access by access.
		if d.pipe != nil {
			ctx.costRecs = tracker
		} else {
			ctx.cost = tracker
		}
		ctx.hooks = ctx.instrumented || ctx.hostTrace
		ctx.rows = ctx.instrumented || ctx.costRecs != nil
	}

	k.Run(ctx)
	// Complete the launch before emitting its OnAPI. A synchronous
	// completion drains, then charges and delivers the last batch and
	// closes the launch's cost, so every OnAccessBatch for this kernel
	// precedes its OnAPI and the tracker has seen every access. An
	// asynchronous one hands that work to the consumer, ahead of anything
	// the hooks queue from OnAPI (see pipeline.go's ordering contract).
	if d.pipe.started() && ctx.tagged && !ctx.stray && d.syncHooks == 0 {
		d.completeAsync(ctx, tracker)
	} else {
		d.completeSync(ctx, tracker)
	}

	if d.patch >= PatchAPI {
		if ctx.hostTrace {
			// In host-trace mode the hooks saw every access; Reads/Writes
			// stay empty here and the collector reconstructs object touches
			// itself (that reconstruction cost is the point of the mode).
		} else {
			for _, e := range ctx.table {
				if e.readHit {
					rec.Reads = append(rec.Reads, e.rng)
				}
				if e.writeHit {
					rec.Writes = append(rec.Writes, e.rng)
				}
			}
		}
	}

	cost := d.spec.LaunchCycles + ctx.accessCycles + ctx.computeCycles
	rec.StartCycle, rec.EndCycle = d.streamOp(stream, cost)
	d.emit(rec)
	return nil
}

// LaunchFunc is a convenience wrapper launching a plain function as a kernel.
func (d *Device) LaunchFunc(stream *Stream, name string, grid, block Dim3, body func(ctx *ExecContext)) error {
	return d.Launch(stream, KernelFunc{KernelName: name, Body: body}, grid, block)
}
