// Package costmodel implements a deterministic, closed-form memory-
// hierarchy cost model for the simulated GPU (ROADMAP item 3, DESIGN.md
// §4.10).
//
// The model converts the per-object access streams the simulator already
// records into the quantities that dominate realized GPU memory cost:
//
//   - per-warp access coalescing: every 32 consecutive accesses to one
//     data object form one warp-instruction group, folded into the
//     distinct 32-byte sectors (DRAM transactions) and 128-byte lines
//     (cache blocks) they touch;
//   - a small set-associative L1/L2 hit model with deterministic LRU
//     replacement, serving each sector transaction at line granularity
//     (the L1 is flushed per kernel launch, the L2 persists across
//     launches);
//   - TLB-reach estimation from allocation layout (pages spanned vs the
//     reach of one TLB fill).
//
// Everything is integer arithmetic over the recorded addresses — no
// clocks, no randomness — so the model is byte-identical across the
// sequential, parallel, pipelined and streaming profiling modes: the
// simulator executes kernel bodies synchronously on the calling
// goroutine in every mode, and the tracker only ever runs there.
//
// The package is deliberately pure: it knows nothing about the gpu or
// trace packages (addresses are plain uint64), which is what lets the
// device's hot access path embed a Tracker without an import cycle.
package costmodel

import (
	"fmt"
	"math/bits"
)

// Spec parameterizes the cost model for one device. The zero value is
// not usable; obtain one from SpecFor so every field is populated (the
// profiler treats a zero SectorBytes as "derive from the device").
type Spec struct {
	// SectorBytes is the DRAM transaction granularity (32 on NVIDIA
	// hardware): a warp's accesses cost one transaction per distinct
	// sector they touch.
	SectorBytes uint64
	// LineBytes is the cache-line granularity (128): the unit the L1/L2
	// hit model tracks.
	LineBytes uint64
	// WarpSize is the number of consecutive same-object accesses folded
	// into one coalescing group (32).
	WarpSize int

	// L1Sets/L1Ways and L2Sets/L2Ways shape the two set-associative
	// caches. L1 capacity = L1Sets * L1Ways * LineBytes, likewise L2.
	L1Sets, L1Ways int
	L2Sets, L2Ways int

	// L1HitCycles, L2HitCycles and DRAMCycles are the per-transaction
	// latencies charged at each level of the hierarchy.
	L1HitCycles uint64
	L2HitCycles uint64
	DRAMCycles  uint64

	// TLBEntries and PageBytes define the reach of one TLB fill
	// (TLBEntries * PageBytes); TLBMissCycles is the per-page walk cost
	// charged when an allocation layout exceeds that reach.
	TLBEntries    int
	PageBytes     uint64
	TLBMissCycles uint64

	// CopyBytesPerCycle mirrors the device's copy bandwidth and is used
	// by the byte→cycle closed forms for lifetime findings (DESIGN.md
	// §4.10).
	CopyBytesPerCycle uint64
	// MallocCycles and FreeCycles mirror the device's allocation API
	// costs, used by the closed forms for redundant/unused allocations.
	MallocCycles uint64
	FreeCycles   uint64
}

// SpecFor derives a model Spec from the simulated device's parameters.
// deviceName selects the cache/TLB geometry (matched by substring, with
// a conservative default); globalLatency becomes the DRAM transaction
// latency and the hit latencies scale from it; copyBW, mallocCycles and
// freeCycles carry the device's existing cost knobs into the closed
// forms.
func SpecFor(deviceName string, globalLatency, copyBW, mallocCycles, freeCycles uint64) Spec {
	s := Spec{
		SectorBytes:       32,
		LineBytes:         128,
		WarpSize:          32,
		L1Sets:            64,
		L1Ways:            4,
		L2Sets:            256,
		L2Ways:            8,
		TLBEntries:        16,
		PageBytes:         64 << 10,
		CopyBytesPerCycle: copyBW,
		MallocCycles:      mallocCycles,
		FreeCycles:        freeCycles,
	}
	switch {
	case contains(deviceName, "A100"):
		s.L1Sets, s.L1Ways = 128, 4 // 64 KiB L1
		s.L2Sets, s.L2Ways = 512, 8 // 512 KiB L2
		s.TLBEntries = 32
	case contains(deviceName, "3090"):
		// defaults above: 32 KiB L1, 256 KiB L2, 1 MiB TLB reach
	case contains(deviceName, "test"), contains(deviceName, "Test"):
		s.L1Sets, s.L1Ways = 8, 2
		s.L2Sets, s.L2Ways = 32, 4
		s.TLBEntries = 4
	}
	if globalLatency == 0 {
		globalLatency = 400
	}
	s.DRAMCycles = globalLatency
	s.L2HitCycles = max1(globalLatency / 3)
	s.L1HitCycles = max1(globalLatency / 12)
	s.TLBMissCycles = max1(globalLatency / 2)
	if s.CopyBytesPerCycle == 0 {
		s.CopyBytesPerCycle = 16
	}
	return s
}

// TLBReach returns the bytes one TLB fill covers.
func (s Spec) TLBReach() uint64 { return uint64(s.TLBEntries) * s.PageBytes }

// Pages returns how many pages an allocation of the given size spans.
func (s Spec) Pages(bytes uint64) uint64 {
	if s.PageBytes == 0 {
		return 0
	}
	return (bytes + s.PageBytes - 1) / s.PageBytes
}

// contains is a dependency-free strings.Contains.
func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func max1(v uint64) uint64 {
	if v == 0 {
		return 1
	}
	return v
}

// ObjectCost aggregates the model's view of one data object's traffic.
// All counters are commutative sums, so per-kernel records can be folded
// into per-object totals in any grouping without changing the result.
type ObjectCost struct {
	// Accesses is the number of memory instructions recorded.
	Accesses uint64
	// Warps is the number of 32-access coalescing groups they formed
	// (the final partial group counts).
	Warps uint64
	// Transactions is the number of 32-byte sector transactions the
	// groups issued; IdealTransactions is the minimum the same bytes
	// could have needed under perfect coalescing.
	Transactions      uint64
	IdealTransactions uint64
	// L1Hits, L2Hits and MemTransactions split Transactions by the
	// hierarchy level that served them.
	L1Hits          uint64
	L2Hits          uint64
	MemTransactions uint64
	// ModeledCycles is the latency-weighted sum over the served levels.
	ModeledCycles uint64
}

// Add folds another record into c.
func (c *ObjectCost) Add(o ObjectCost) {
	c.Accesses += o.Accesses
	c.Warps += o.Warps
	c.Transactions += o.Transactions
	c.IdealTransactions += o.IdealTransactions
	c.L1Hits += o.L1Hits
	c.L2Hits += o.L2Hits
	c.MemTransactions += o.MemTransactions
	c.ModeledCycles += o.ModeledCycles
}

// ExcessTransactions is the coalescing waste: transactions issued beyond
// the perfectly-coalesced minimum.
func (c ObjectCost) ExcessTransactions() uint64 {
	if c.Transactions <= c.IdealTransactions {
		return 0
	}
	return c.Transactions - c.IdealTransactions
}

// EntryCost is one hit-table entry's cost within a kernel launch. Base
// is the entry's range base address, which the collector resolves back
// to a data object.
type EntryCost struct {
	Base uint64
	ObjectCost
}

// KernelCost is the model's record for one kernel launch: per-entry
// costs (entries with no accesses are omitted) plus the launch total.
type KernelCost struct {
	Entries []EntryCost
	Total   ObjectCost
}

// Cache is a small set-associative cache with deterministic LRU
// replacement, tracked at line granularity. Its set count is a power of
// two, so a line's set is its low bits.
type Cache struct {
	mask  uint64 // sets-1
	nways int
	ways  []way // sets*nways, set-major
	tick  uint64
}

// way is one cache slot: a line ID (+1 so 0 means empty) and its LRU
// clock, side by side so a probe reads one contiguous set.
type way struct{ tag, stamp uint64 }

// NewCache builds an empty cache. A set count below 1 means one set; any
// other set count must be a power of two, or NewCache panics.
func NewCache(sets, ways int) *Cache {
	if sets < 1 {
		sets = 1
	}
	if !pow2(uint64(sets)) {
		panic(fmt.Sprintf("costmodel: cache set count %d is not a power of two", sets))
	}
	if ways < 1 {
		ways = 1
	}
	return &Cache{mask: uint64(sets - 1), nways: ways, ways: make([]way, sets*ways)}
}

// Access probes the cache for a line ID, inserting it (with LRU
// eviction) on a miss. Returns whether the probe hit.
func (c *Cache) Access(line uint64) bool {
	c.tick++
	base := int(line&c.mask) * c.nways
	set := c.ways[base : base+c.nways]
	tag := line + 1
	victim, oldest := 0, ^uint64(0)
	for i := range set {
		w := &set[i]
		if w.tag == tag {
			w.stamp = c.tick
			return true
		}
		if w.tag == 0 {
			// Prefer an empty way; stamp 0 is older than any real entry.
			if oldest != 0 {
				victim, oldest = i, 0
			}
			continue
		}
		if w.stamp < oldest {
			victim, oldest = i, w.stamp
		}
	}
	set[victim] = way{tag: tag, stamp: c.tick}
	return false
}

// Reset empties the cache without reallocating.
func (c *Cache) Reset() {
	clear(c.ways)
	c.tick = 0
}

// shifts returns log2(SectorBytes), which maps an address to its sector
// ID, and log2(LineBytes/SectorBytes), which maps a sector ID to its line
// ID. It panics on a geometry those shifts cannot express: a sector or
// line size that is not a power of two, lines smaller than sectors, or a
// warp of fewer than one access. SpecFor never produces one.
func (s Spec) shifts() (sector, line uint) {
	switch {
	case !pow2(s.SectorBytes):
		panic(fmt.Sprintf("costmodel: SectorBytes %d is not a power of two", s.SectorBytes))
	case !pow2(s.LineBytes):
		panic(fmt.Sprintf("costmodel: LineBytes %d is not a power of two", s.LineBytes))
	case s.LineBytes < s.SectorBytes:
		panic(fmt.Sprintf("costmodel: LineBytes %d is smaller than SectorBytes %d", s.LineBytes, s.SectorBytes))
	case s.WarpSize < 1:
		panic(fmt.Sprintf("costmodel: WarpSize %d is below 1", s.WarpSize))
	}
	sector = uint(bits.TrailingZeros64(s.SectorBytes))
	return sector, uint(bits.TrailingZeros64(s.LineBytes)) - sector
}

func pow2(v uint64) bool { return v != 0 && v&(v-1) == 0 }

// entryState is the per-hit-table-entry coalescing state of one launch:
// the current (unflushed) warp group plus the running cost totals.
type entryState struct {
	n     int // accesses in the current group
	ns    int // distinct sectors in the current group
	bytes uint64
	cost  ObjectCost
	// sectors holds the group's first 64 distinct sector IDs in ascending
	// order, so sectors[ns-1] is the highest.
	sectors [64]uint64
}

// Tracker accumulates the cost model for one kernel launch at a time. It
// is bound to the launch's hit table (one entryState per entry), its own
// L1, and the device's persistent L2. Reset readies it for the next
// launch, so a device keeps a single Tracker.
type Tracker struct {
	sectorShift uint   // address → sector ID
	sectorMask  uint64 // SectorBytes-1: an address's offset in its sector
	lineShift   uint   // sector ID → line ID
	warp        int
	entries     []entryState
	touched     []int32 // entry indices with accesses, in first-touch order
	l1, l2      *Cache
	spec        Spec
}

// NewTracker prepares cost accounting for a launch over a hit table of
// the given size. l2 is the device's persistent cache (may be shared
// across launches; the tracker only runs on the launching goroutine).
// NewTracker panics on a spec whose geometry the model cannot represent:
// SectorBytes, LineBytes and L1Sets must be powers of two, LineBytes at
// least SectorBytes, and WarpSize at least 1.
func NewTracker(spec Spec, l2 *Cache, entries int) *Tracker {
	sector, line := spec.shifts()
	return &Tracker{
		sectorShift: sector,
		sectorMask:  spec.SectorBytes - 1,
		lineShift:   line,
		warp:        spec.WarpSize,
		entries:     make([]entryState, entries),
		l1:          NewCache(spec.L1Sets, spec.L1Ways),
		l2:          l2,
		spec:        spec,
	}
}

// Reset readies the tracker for a new launch over a hit table of the
// given size, as a fresh NewTracker would, keeping its buffers: it clears
// only the entries the previous launch touched and empties the L1. The
// L2 keeps its contents.
func (t *Tracker) Reset(entries int) {
	for _, e := range t.touched {
		t.entries[e] = entryState{}
	}
	t.touched = t.touched[:0]
	if n := entries - cap(t.entries); n > 0 {
		t.entries = append(t.entries[:cap(t.entries)], make([]entryState, n)...)
	}
	t.entries = t.entries[:entries]
	t.l1.Reset()
}

// Access records one memory instruction against a hit-table entry. It
// sits on the simulator's hot access path: an access that stays inside
// its group's highest sector so far, as most unit-stride and broadcast
// accesses do, adds no sector and costs a shift and a few compares and
// adds. Any other access goes through addSectors.
func (t *Tracker) Access(entry int, addr uint64, size uint32) {
	st := &t.entries[entry]
	if st.ns == 0 || st.sectors[st.ns-1] != addr>>t.sectorShift || addr&t.sectorMask+uint64(size) > t.sectorMask+1 {
		t.addSectors(st, entry, addr, size)
	}
	st.cost.Accesses++
	st.n++
	st.bytes += uint64(size)
	if st.n >= t.warp {
		t.flush(st)
	}
}

// addSectors records the entry's first touch of the launch and inserts
// the sectors an access covers into its group's ascending sector set.
// The highest sector is compared first, so a repeated or ascending
// sector costs one compare; any other is inserted in place. A sector
// already present is skipped, and a new one is dropped once the group
// holds 64: the set keeps a group's first 64 distinct sectors.
func (t *Tracker) addSectors(st *entryState, entry int, addr uint64, size uint32) {
	if st.cost.Accesses == 0 {
		t.touched = append(t.touched, int32(entry))
	}
	first := addr >> t.sectorShift
	last := first
	if size > 0 {
		last = (addr + uint64(size) - 1) >> t.sectorShift
	}
	for s := first; s <= last && st.ns < len(st.sectors); s++ {
		i := st.ns
		if i == 0 || st.sectors[i-1] < s {
			st.sectors[i] = s
			st.ns++
			continue
		}
		for i > 0 && st.sectors[i-1] > s {
			i--
		}
		if i > 0 && st.sectors[i-1] == s {
			continue
		}
		copy(st.sectors[i+1:st.ns+1], st.sectors[i:st.ns])
		st.sectors[i] = s
		st.ns++
	}
}

// flush closes one warp group: counts its transactions against the
// ideal, serves each distinct sector from the hierarchy, and resets the
// group. The sector set is already ascending, which fixes a
// deterministic replacement order and puts a line's sectors next to each
// other, so a 128-byte line's four sectors cost one fill plus three L1
// hits, the hardware shape.
//
// Only the first sector of each line probes the L1; the line's other
// sectors count as L1 hits without a probe. That is exact: the first
// probe leaves the line in the L1, by a hit or a fill, and no other probe
// falls between it and the line's next sectors, so their probes would
// hit and only advance the line's LRU stamp by a tick. The LRU order
// within every set, and so every later hit and eviction, is the same
// either way.
func (t *Tracker) flush(st *entryState) {
	if st.n == 0 {
		return
	}
	ns := uint64(st.ns)
	st.cost.Warps++
	st.cost.Transactions += ns
	ideal := (st.bytes + t.spec.SectorBytes - 1) >> t.sectorShift
	if ideal > ns {
		ideal = ns
	}
	if ideal == 0 && ns > 0 {
		ideal = 1
	}
	st.cost.IdealTransactions += ideal

	var prev uint64
	for i, s := range st.sectors[:st.ns] {
		line := s >> t.lineShift
		switch {
		case i > 0 && line == prev, t.l1.Access(line):
			st.cost.L1Hits++
			st.cost.ModeledCycles += t.spec.L1HitCycles
		case t.l2 != nil && t.l2.Access(line):
			st.cost.L2Hits++
			st.cost.ModeledCycles += t.spec.L2HitCycles
		default:
			st.cost.MemTransactions++
			st.cost.ModeledCycles += t.spec.DRAMCycles
		}
		prev = line
	}
	st.n = 0
	st.bytes = 0
	st.ns = 0
}

// Finish flushes every partial warp group and materializes the launch's
// KernelCost. base resolves a hit-table entry index to its range base
// address. Entries are emitted in hit-table (address) order.
func (t *Tracker) Finish(base func(entry int) uint64) *KernelCost {
	sort32(t.touched)
	kc := &KernelCost{}
	for _, e := range t.touched {
		st := &t.entries[e]
		t.flush(st)
		kc.Entries = append(kc.Entries, EntryCost{Base: base(int(e)), ObjectCost: st.cost})
		kc.Total.Add(st.cost)
	}
	if len(kc.Entries) == 0 {
		return nil
	}
	return kc
}

func sort32(v []int32) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
