package gpu

import (
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"drgpum/internal/costmodel"
)

// refContext is the profiled access path as it was before hit-table rows
// carried their allocation, kept verbatim as the reference that
// FuzzResolveMatchesReference checks resolve and access against: the
// previous access's row (lastEntry), then the inline binary search, for
// the row; an independent Allocator.lookup for the backing bytes.
type refContext struct {
	dev       *Device
	table     []refEntry
	lastEntry int
	cost      *costmodel.Tracker
	faults    []Fault
}

type refEntry struct {
	rng      Range
	readHit  bool
	writeHit bool
}

// newRefContext builds the reference's launch state the way Launch built
// it: one row per live range, and the cost tracker reset to the table's
// size when the model is on and the table is not empty.
func newRefContext(dev *Device, live []Range, cost *costmodel.Tracker) *refContext {
	c := &refContext{dev: dev, table: make([]refEntry, len(live)), lastEntry: -1}
	for i, r := range live {
		c.table[i] = refEntry{rng: r}
	}
	if cost != nil && len(c.table) > 0 {
		cost.Reset(len(c.table))
		c.cost = cost
	}
	return c
}

// findEntry locates the hit-table row containing addr, mimicking the binary
// search the paper performs on the device (Figure 5). Returns -1 if the
// address is not inside any live object.
func (c *refContext) findEntry(addr DevicePtr) int {
	// Fast path: same object as the previous access.
	if c.lastEntry >= 0 && c.lastEntry < len(c.table) && c.table[c.lastEntry].rng.Contains(addr) {
		return c.lastEntry
	}
	// Binary search for the first row starting above addr; only the row
	// before it can contain addr.
	lo, hi := 0, len(c.table)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.table[mid].rng.Addr > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo > 0 && c.table[lo-1].rng.Contains(addr) {
		c.lastEntry = lo - 1
		return lo - 1
	}
	return -1
}

// access is the profiled (hit-flag, not host-trace) half of
// ExecContext.access as it was then: the backing bytes or a fault from Allocator.lookup, then the
// row from findEntry, which sets the hit flag and charges the cost model.
// It returns the row and the backing bytes.
func (c *refContext) access(addr DevicePtr, size uint32, kind AccessKind) (int, []byte) {
	b := c.dev.alloc.lookup(addr)
	var data []byte
	if b == nil || uint64(addr-b.addr)+uint64(size) > b.req {
		c.faults = append(c.faults, Fault{Addr: addr, Size: size, Kind: kind})
	} else {
		off := addr - b.addr
		data = b.data[off : uint64(off)+uint64(size)]
	}
	i := c.findEntry(addr)
	if i >= 0 {
		if kind == AccessRead {
			c.table[i].readHit = true
		} else {
			c.table[i].writeHit = true
		}
		if c.cost != nil {
			c.cost.Access(i, uint64(addr), size)
		}
	}
	return i, data
}

// finish folds the hit flags into read and write sets in row order and
// closes the launch's cost, as Launch did after the kernel body.
func (c *refContext) finish() (reads, writes []Range, cost *costmodel.KernelCost) {
	for _, e := range c.table {
		if e.readHit {
			reads = append(reads, e.rng)
		}
		if e.writeHit {
			writes = append(writes, e.rng)
		}
	}
	if c.cost != nil {
		cost = c.cost.Finish(func(i int) uint64 { return uint64(c.table[i].rng.Addr) })
	}
	return reads, writes, cost
}

// fuzzBytes hands out fuzz bytes one at a time, then zeros once the input
// runs out, so every input decodes to a complete program.
type fuzzBytes struct{ b []byte }

func (r *fuzzBytes) next() int {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return int(v)
}

// fuzzLiveSet is the decoded device state of one fuzz input: the device,
// its live blocks in allocation order, and the memory map rows the live-
// ranges provider hands each launch, kept in address order with equal
// bases in insertion order, the way the collector's memory map keeps them.
// Each row has a distinct nonzero tag, handed out in insertion order.
type fuzzLiveSet struct {
	dev     *Device
	blocks  []DevicePtr
	rows    []Range
	tags    []uint32
	nextTag uint32
}

func (s *fuzzLiveSet) insertRow(r Range) {
	i := sort.Search(len(s.rows), func(i int) bool { return s.rows[i].Addr > r.Addr })
	s.rows = append(s.rows, Range{})
	copy(s.rows[i+1:], s.rows[i:])
	s.rows[i] = r
	s.nextTag++
	s.tags = append(s.tags, 0)
	copy(s.tags[i+1:], s.tags[i:])
	s.tags[i] = s.nextTag
}

// table is the fuzz input's live-ranges provider: copies of the rows and
// their tags.
func (s *fuzzLiveSet) table() ([]Range, []uint32) {
	return append([]Range(nil), s.rows...), append([]uint32(nil), s.tags...)
}

// rowsDisjoint reports whether no row starts inside another, checked over
// every pair. A zero-size row inside another counts as overlap: it holds
// no address, but a search can land on it and miss the row around it, so
// an address's row then depends on what the search saw before.
func rowsDisjoint(rows []Range) bool {
	for i := range rows {
		for j := i + 1; j < len(rows); j++ {
			if uint64(rows[j].Addr-rows[i].Addr) < rows[i].Size {
				return false
			}
		}
	}
	return true
}

// op applies one three-byte live-set operation:
//
//	op%4 == 0  allocate a*32 + b%32 bytes (0 is a zero-size allocation);
//	           its range becomes a row
//	op%4 == 1  free live block a; its own row goes, and the rows nested
//	           in it stay behind over freed (or quarantined) space
//	op%4 == 2  nest a pool-style row in live block a at offset (b%16)*16,
//	           (op>>2)%8*16 bytes long: possibly empty, possibly running
//	           past the block's end
//	op%4 == 3  add a stray row b%64 bytes before the end of live block a's
//	           reserved span, (op>>2)*8 bytes long: it straddles the span's
//	           end, or lies wholly in the red zone or the gap after it
func (s *fuzzLiveSet) op(op, a, b int) {
	if op%4 == 0 {
		size := uint64(a*32 + b%32)
		p, err := s.dev.Malloc(size)
		if err != nil {
			return
		}
		s.blocks = append(s.blocks, p)
		s.insertRow(Range{Addr: p, Size: size})
		return
	}
	if len(s.blocks) == 0 {
		return
	}
	k := a % len(s.blocks)
	p := s.blocks[k]
	blk := s.dev.alloc.blocks[s.dev.alloc.blockIndex(p)]
	switch op % 4 {
	case 1:
		for i, r := range s.rows {
			if r.Addr == p && r.Size == blk.req {
				s.rows = append(s.rows[:i], s.rows[i+1:]...)
				s.tags = append(s.tags[:i], s.tags[i+1:]...)
				break
			}
		}
		s.blocks = append(s.blocks[:k], s.blocks[k+1:]...)
		if err := s.dev.Free(p); err != nil {
			panic(err)
		}
	case 2:
		s.insertRow(Range{Addr: p + DevicePtr((b%16)*16), Size: uint64((op >> 2) % 8 * 16)})
	case 3:
		end := blk.base + DevicePtr(blk.total)
		s.insertRow(Range{Addr: end - DevicePtr(b%64), Size: uint64(op>>2) * 8})
	}
}

// targets lists the address ranges access runs aim at: every row, every
// live block's reserved span (red zones included) and every quarantined
// span. An empty device still gets one target, where every access faults.
func (s *fuzzLiveSet) targets() []Range {
	t := append([]Range(nil), s.rows...)
	for _, b := range s.dev.alloc.blocks {
		t = append(t, Range{Addr: b.base, Size: b.total})
	}
	for _, q := range s.dev.alloc.quarantine {
		t = append(t, Range{Addr: q.span.addr, Size: q.span.size})
	}
	if len(t) == 0 {
		t = append(t, Range{Addr: allocBase, Size: 256})
	}
	return t
}

// fuzzAccess is one decoded memory instruction.
type fuzzAccess struct {
	addr DevicePtr
	size uint32
	kind AccessKind
}

// Access shapes of one decoded run.
const (
	runUnit = iota
	runStrided
	runInterleaved
	runScatter
)

// decodeRuns reads a run header byte and the runs. The header's low six
// bits modulo 6 are the run count less one (1-6 runs), and its top two
// bits scale every run's access count by 1, 4, 16 or 64, enough for a
// launch of several full access batches. Each run header is four bytes:
//
//	op:     bits 0-1 the shape (unit, strided, k-operand interleaved,
//	        scatter), bit 2 a write instead of a read, bits 3-7 the
//	        target;
//	count:  (count+1) times the scale accesses;
//	size:   size%17 bytes, so accesses may be empty or straddle a row's
//	        end;
//	param:  the starting offset; for strided runs also the stride, for
//	        interleaved runs the operand count 2-4 (consecutive targets),
//	        for scatter the seed.
//
// An access at offset o of target t lands at t.Addr-16 + o%(t.Size+32),
// so runs spill 16 bytes past both ends of their target: into red zones,
// gaps and neighbouring rows.
func decodeRuns(r *fuzzBytes, targets []Range) []fuzzAccess {
	var accs []fuzzAccess
	at := func(t Range, off uint64, size uint32, kind AccessKind) {
		accs = append(accs, fuzzAccess{addr: t.Addr - 16 + DevicePtr(off%(t.Size+32)), size: size, kind: kind})
	}
	hdr := r.next()
	scale := 1 << (hdr >> 6 * 2)
	for runs := 1 + (hdr&63)%6; runs > 0; runs-- {
		op, count, size, param := r.next(), (1+r.next())*scale, uint32(r.next()%17), r.next()
		kind := AccessRead
		if op&4 != 0 {
			kind = AccessWrite
		}
		t := op >> 3
		off := uint64(param)
		x := uint64(param)*2654435761 + 1
		for i := 0; i < count; i++ {
			switch op & 3 {
			case runUnit:
				at(targets[t%len(targets)], off+uint64(i)*uint64(size), size, kind)
			case runStrided:
				at(targets[t%len(targets)], off+uint64(i)*8*(1+uint64(param)), size, kind)
			case runInterleaved:
				k := 2 + param%3
				at(targets[(t+i%k)%len(targets)], uint64(i/k)*uint64(size), size, kind)
			case runScatter:
				x = x*6364136223846793005 + 1442695040888963407
				at(targets[int(x>>40)%len(targets)], x>>16, size, kind)
			}
		}
	}
	return accs
}

// sameBytes reports whether two backing slices are the same bytes of the
// same allocation, or both absent.
func sameBytes(a, b []byte) bool {
	return (a == nil) == (b == nil) && len(a) == len(b) && cap(a) == cap(b) &&
		unsafe.SliceData(a) == unsafe.SliceData(b)
}

// FuzzResolveMatchesReference decodes the fuzz input into a live set and a
// few launches of access runs, and checks every profiled access against
// the reference resolution (refContext): per access, the row it resolves
// to and the backing bytes or the fault; per launch, the read and write
// hit sets, the faults, the KernelCost and the accesses recorded for the
// hooks with their tags and rows. A record carries the tag of the
// reference row when the launch's rows are disjoint (rowsDisjoint), and 0
// when they overlap, in host-trace mode and when the table has no tags;
// it carries the reference row plus one, or 0 outside every row. Between
// launches the live set changes, so later launches see freed, quarantined
// and reused space.
//
// Input layout: byte 0 is a flag set (bit 0 red zones, bit 1 a
// quarantine, bit 2 PatchFull instead of PatchAPI, bit 3 cost model off,
// bit 4 the allocator's own live ranges instead of the memory-map rows,
// bit 5 host-trace object identification, bit 6 a provider that hands
// out no tags, bit 7 pipelined ingest armed, so the cost model is charged
// from access records, full batches on the consumer), byte 1 the launch
// count (1-3) in its low seven bits and, in bit 7, a hook that accepts
// asynchronous completion, so once the consumer runs a launch with tagged
// rows returns before its tail and cost record are processed. Each launch
// reads an operation byte, whose low three bits are an operation count
// (0-7), whose bit 3 leaves the launch uninstrumented at PatchFull and
// whose bit 4 waits for the consumer after the launch (a window close),
// that many three-byte live-set operations (fuzzLiveSet.op), then its
// access runs (decodeRuns). With an asynchronous hook a launch's cost
// record and records are checked at the next wait or at the end. The
// seed corpus in testdata/fuzz covers disjoint, nested and stray rows,
// zero-size rows, red zones and quarantined frees, host-trace launches,
// untagged tables, every access shape, launches of several full batches at
// both levels, instrumented and uninstrumented launches in one run, a
// launch with no full batch after the consumer has started, asynchronous
// launches mixed with synchronous ones over overlapping rows, and a wait
// right after an asynchronous launch; every seed has a twin that differs
// in bit 7 alone, so each checks the inline and the piped path, and each
// of those an asynchronous twin that differs in bit 7 of byte 1.
func FuzzResolveMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzBytes{b: data}
		flags := r.next()
		count := r.next()
		launches := 1 + (count&127)%3

		dev := NewDevice(SpecTest())
		if flags&1 != 0 {
			dev.Allocator().SetRedzone(64)
		}
		if flags&2 != 0 {
			dev.Allocator().SetQuarantine(4 << 10)
		}
		level := PatchAPI
		if flags&4 != 0 {
			level = PatchFull
		}
		var refCost *costmodel.Tracker
		if flags&8 == 0 {
			dev.SetCostModel(costmodel.Spec{})
			spec, _ := dev.CostModelSpec()
			refCost = costmodel.NewTracker(spec, costmodel.NewCache(spec.L2Sets, spec.L2Ways), 0)
		}
		set := &fuzzLiveSet{dev: dev}
		live := set.table
		switch {
		case flags&16 != 0:
			live = func() ([]Range, []uint32) { return dev.alloc.Live(), nil }
		case flags&64 != 0:
			live = func() ([]Range, []uint32) { return append([]Range(nil), set.rows...), nil }
			dev.SetLiveRangesProvider(live)
		default:
			dev.SetLiveRangesProvider(live)
		}
		hostTrace := flags&32 != 0
		if hostTrace {
			dev.SetObjectIDMode(ObjectIDHostTrace)
		}
		var hook *batchLog
		var done *Completion
		if count&128 != 0 {
			h := &asyncHook{}
			dev.AddHook(h)
			hook, done = &h.batchLog, h.q
		} else {
			h := &syncHook{}
			dev.AddHook(h)
			hook = &h.batchLog
		}
		// pending holds the checks of launches whose cost record and
		// records the consumer may still be producing; settle waits for it
		// and runs them.
		var pending []func()
		settle := func() {
			done.Wait()
			for _, check := range pending {
				check()
			}
			pending = pending[:0]
		}
		defer settle()
		dev.SetPatchLevel(level)
		instrument := true
		dev.SetInstrumentFilter(func(string, uint64) bool { return instrument })
		if flags&128 != 0 {
			dev.StartPipelinedIngest()
			defer dev.StopPipelinedIngest()
		}

		for l := 0; l < launches; l++ {
			op := r.next()
			for ops := op % 8; ops > 0; ops-- {
				set.op(r.next(), r.next(), r.next())
			}
			instrument = op&8 == 0
			accs := decodeRuns(r, set.targets())
			var ref *refContext
			// At PatchFull in an instrumented launch, and at any level in
			// host-trace mode, every access is recorded for the hooks, in
			// order, resolved or not.
			record := level == PatchFull && instrument || hostTrace
			var wantPushed []MemAccess
			err := dev.LaunchFunc(nil, "fuzz", Dim1(1), Dim1(32), func(ctx *ExecContext) {
				// A host-trace launch builds no table: no row, hit flag or
				// cost, and no tag.
				rows, tags := live()
				if hostTrace {
					rows, tags = nil, nil
				}
				ref = newRefContext(dev, rows, refCost)
				if !rowsDisjoint(rows) {
					tags = nil
				}
				for n, a := range accs {
					// Resolve on a copy: it sees the slots this access will
					// probe and leaves the real ones untouched.
					probe := *ctx
					row, _ := probe.resolve(a.addr)
					wantRow, want := ref.access(a.addr, a.size, a.kind)
					if record {
						var tag uint32
						if wantRow >= 0 && tags != nil {
							tag = tags[wantRow]
						}
						wantPushed = append(wantPushed, MemAccess{Addr: a.addr, Size: a.size, Kind: a.kind, Space: SpaceGlobal, Tag: tag, row: int32(wantRow + 1)})
					}
					got := ctx.access(a.addr, a.size, a.kind)
					if row != wantRow {
						t.Fatalf("launch %d access %d (%#x, %d bytes): row %d, want %d", l, n, uint64(a.addr), a.size, row, wantRow)
					}
					if !sameBytes(got, want) {
						t.Fatalf("launch %d access %d (%#x, %d bytes): backing bytes differ (got %d bytes, want %d)",
							l, n, uint64(a.addr), a.size, len(got), len(want))
					}
					if len(ctx.rec.Faults) != len(ref.faults) {
						t.Fatalf("launch %d access %d (%#x, %d bytes): %d faults, want %d",
							l, n, uint64(a.addr), a.size, len(ctx.rec.Faults), len(ref.faults))
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			rec := hook.apis[len(hook.apis)-1]
			reads, writes, cost := ref.finish()
			if !reflect.DeepEqual(rec.Reads, reads) || !reflect.DeepEqual(rec.Writes, writes) {
				t.Fatalf("launch %d: hit sets\n got reads %v writes %v\nwant reads %v writes %v", l, rec.Reads, rec.Writes, reads, writes)
			}
			if !reflect.DeepEqual(rec.Faults, ref.faults) {
				t.Fatalf("launch %d: faults\n got %v\nwant %v", l, rec.Faults, ref.faults)
			}
			pending = append(pending, func() {
				if !reflect.DeepEqual(rec.Cost, cost) {
					t.Fatalf("launch %d: cost\n got %+v\nwant %+v", l, rec.Cost, cost)
				}
				var pushed []MemAccess
				for i, b := range hook.batches {
					if hook.recs[i] == rec {
						pushed = append(pushed, b...)
					}
				}
				if len(pushed) != len(wantPushed) {
					t.Fatalf("launch %d: %d access records, want %d", l, len(pushed), len(wantPushed))
				}
				for n := range pushed {
					if pushed[n] != wantPushed[n] {
						t.Fatalf("launch %d access %d: record %+v, want %+v", l, n, pushed[n], wantPushed[n])
					}
				}
			})
			if done == nil || op&16 != 0 {
				settle()
			}
		}
	})
}
