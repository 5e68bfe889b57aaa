package trace

import (
	"sort"

	"drgpum/internal/gpu"
)

// MemoryMap is the memory map "M" of paper §5.1: the set of live data
// objects keyed by address range, supporting the binary-search lookups that
// attribute memory copies, sets and kernel accesses to objects.
type MemoryMap struct {
	// entries are live objects sorted by base address. Live allocations
	// never overlap, so a single sorted slice suffices.
	entries []mapEntry
	// cache holds copies of recently-hit entries (zero Size means invalid).
	// Kernel access streams have strong spatial locality — consecutive
	// lookups usually hit the same object, and stencil/BLAS streams like
	// `y[i] += A[i][j] * x[j]` cycle through a handful of operands — so a
	// few compares against struct-resident ranges replace the binary
	// search (and its pointer chasing) for most lookups. Filled
	// round-robin on search hits; invalidated on every Insert/Remove.
	cache    [4]mapEntry
	cacheRot uint8
	// missStreak counts consecutive Lookups that probed the cache and
	// missed. Cache-hostile streams — large strides hopping objects every
	// access — pay the four compares on top of every binary search; after
	// cacheBypassStreak consecutive misses the probe loop collapses to
	// the single freshest slot, so the worst case degrades to (almost)
	// plain binary search while one compare per lookup still notices the
	// moment locality returns. Any hit resets the streak.
	missStreak uint8
}

// cacheBypassStreak is the consecutive-miss count after which Lookup
// stops probing the whole cache. Small enough to adapt within one run of
// a strided kernel; any single hit resets it, so streams that cycle a
// few operands (every probe hits) never trip it.
const cacheBypassStreak = 8

type mapEntry struct {
	rng gpu.Range
	id  ObjectID
}

// NewMemoryMap creates an empty map.
func NewMemoryMap() *MemoryMap { return &MemoryMap{} }

// Len returns the number of live objects.
func (m *MemoryMap) Len() int { return len(m.entries) }

// Insert registers a live object. Ranges of live objects must not overlap;
// the allocator guarantees this for real traces.
func (m *MemoryMap) Insert(id ObjectID, rng gpu.Range) {
	i := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].rng.Addr > rng.Addr })
	m.entries = append(m.entries, mapEntry{})
	copy(m.entries[i+1:], m.entries[i:])
	m.entries[i] = mapEntry{rng: rng, id: id}
	m.cache = [4]mapEntry{}
	m.missStreak = 0
}

// Remove unregisters the object whose range starts exactly at addr and
// returns its ID. The second result is false if no live object starts there.
func (m *MemoryMap) Remove(addr gpu.DevicePtr) (ObjectID, bool) {
	i := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].rng.Addr >= addr })
	if i == len(m.entries) || m.entries[i].rng.Addr != addr {
		return 0, false
	}
	id := m.entries[i].id
	m.entries = append(m.entries[:i], m.entries[i+1:]...)
	m.cache = [4]mapEntry{}
	m.missStreak = 0
	return id, true
}

// Lookup returns the live object containing addr.
func (m *MemoryMap) Lookup(addr gpu.DevicePtr) (ObjectID, bool) {
	// Freshest slot first: the entry the last search installed. Sweep-
	// shaped streams — runs of accesses to one object — hit here with a
	// single compare and never touch the streak counter. A zero-size
	// range contains nothing, so empty slots never match.
	if f := (m.cacheRot - 1) & 3; m.cache[f].rng.Contains(addr) {
		if m.missStreak != 0 {
			m.missStreak = 0
		}
		return m.cache[f].id, true
	}
	if m.missStreak < cacheBypassStreak {
		for i := range m.cache {
			if m.cache[i].rng.Contains(addr) {
				m.missStreak = 0
				return m.cache[i].id, true
			}
		}
		m.missStreak++
	}
	// Else bypassing: cache-hostile stream — the freshest compare above is
	// the whole cache cost, so the worst case degrades to plain binary
	// search, and the first re-hit flips the cache back on.
	i := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].rng.Addr > addr })
	if i == 0 {
		return 0, false
	}
	if m.entries[i-1].rng.Contains(addr) {
		m.cache[m.cacheRot&3] = m.entries[i-1]
		m.cacheRot++
		return m.entries[i-1].id, true
	}
	return 0, false
}

// LookupBase returns the live object whose range starts exactly at addr.
func (m *MemoryMap) LookupBase(addr gpu.DevicePtr) (ObjectID, bool) {
	i := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].rng.Addr >= addr })
	if i < len(m.entries) && m.entries[i].rng.Addr == addr {
		return m.entries[i].id, true
	}
	return 0, false
}

// Overlapping appends to dst the IDs of all live objects intersecting rng,
// in address order, and returns the extended slice.
func (m *MemoryMap) Overlapping(dst []ObjectID, rng gpu.Range) []ObjectID {
	// First entry that could overlap: the one containing rng.Addr, or the
	// first starting after it.
	i := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].rng.Addr > rng.Addr })
	if i > 0 && m.entries[i-1].rng.Overlaps(rng) {
		i--
	}
	for ; i < len(m.entries) && m.entries[i].rng.Addr < rng.End(); i++ {
		if m.entries[i].rng.Overlaps(rng) {
			dst = append(dst, m.entries[i].id)
		}
	}
	return dst
}

// LiveRanges returns the address ranges of all live objects in address
// order.
func (m *MemoryMap) LiveRanges() []gpu.Range {
	out := make([]gpu.Range, len(m.entries))
	for i, e := range m.entries {
		out[i] = e.rng
	}
	return out
}

// appendLiveTable appends the address ranges of all live objects, in
// address order, to ranges and each one's ObjectTag to tags, in one pass.
func (m *MemoryMap) appendLiveTable(ranges []gpu.Range, tags []uint32) ([]gpu.Range, []uint32) {
	for _, e := range m.entries {
		ranges = append(ranges, e.rng)
		tags = append(tags, ObjectTag(e.id))
	}
	return ranges, tags
}

// Live returns the IDs of all live objects in address order.
func (m *MemoryMap) Live() []ObjectID {
	out := make([]ObjectID, len(m.entries))
	for i, e := range m.entries {
		out[i] = e.id
	}
	return out
}
