package costmodel

import (
	"reflect"
	"sort"
	"testing"
)

// refCache and refTracker are the original, unoptimized cost model kept as
// a brute-force reference: modulo set indexing, a linear scan for
// duplicate sectors, an insertion sort of each warp group at flush and one
// L1 probe for every sector. FuzzTrackerMatchesReference runs the fast
// Tracker against them; any optimization that changes a single count or
// cache line fails it.
type refCache struct {
	sets, ways int
	tags       []uint64 // sets*ways, line IDs (+1 so 0 means empty)
	stamps     []uint64 // LRU clocks, parallel to tags
	tick       uint64
}

func newRefCache(sets, ways int) *refCache {
	if sets < 1 {
		sets = 1
	}
	if ways < 1 {
		ways = 1
	}
	return &refCache{sets: sets, ways: ways, tags: make([]uint64, sets*ways), stamps: make([]uint64, sets*ways)}
}

func (c *refCache) Access(line uint64) bool {
	c.tick++
	set := int(line % uint64(c.sets))
	base := set * c.ways
	tag := line + 1
	victim, oldest := base, ^uint64(0)
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == tag {
			c.stamps[i] = c.tick
			return true
		}
		if c.tags[i] == 0 {
			// Prefer an empty way; stamp 0 is older than any real entry.
			if oldest != 0 {
				victim, oldest = i, 0
			}
			continue
		}
		if c.stamps[i] < oldest {
			victim, oldest = i, c.stamps[i]
		}
	}
	c.tags[victim] = tag
	c.stamps[victim] = c.tick
	return false
}

type refEntryState struct {
	n       int // accesses in the current group
	bytes   uint64
	sectors [64]uint64 // distinct sector IDs in the current group
	ns      int
	cost    ObjectCost
}

type refTracker struct {
	spec    Spec
	l1      *refCache
	l2      *refCache
	entries []refEntryState
	touched []int32 // entry indices with accesses, in first-touch order
}

func newRefTracker(spec Spec, l2 *refCache, entries int) *refTracker {
	return &refTracker{
		spec:    spec,
		l1:      newRefCache(spec.L1Sets, spec.L1Ways),
		l2:      l2,
		entries: make([]refEntryState, entries),
	}
}

func (t *refTracker) Access(entry int, addr uint64, size uint32) {
	st := &t.entries[entry]
	if st.n == 0 && st.cost.Accesses == 0 {
		t.touched = append(t.touched, int32(entry))
	}
	st.cost.Accesses++
	st.n++
	st.bytes += uint64(size)
	first := addr / t.spec.SectorBytes
	last := first
	if size > 0 {
		last = (addr + uint64(size) - 1) / t.spec.SectorBytes
	}
	for s := first; s <= last; s++ {
		known := false
		for i := 0; i < st.ns; i++ {
			if st.sectors[i] == s {
				known = true
				break
			}
		}
		if !known && st.ns < len(st.sectors) {
			st.sectors[st.ns] = s
			st.ns++
		}
	}
	if st.n >= t.spec.WarpSize {
		t.flush(st)
	}
}

func (t *refTracker) flush(st *refEntryState) {
	if st.n == 0 {
		return
	}
	st.cost.Warps++
	st.cost.Transactions += uint64(st.ns)
	ideal := (st.bytes + t.spec.SectorBytes - 1) / t.spec.SectorBytes
	if ideal > uint64(st.ns) {
		ideal = uint64(st.ns)
	}
	if ideal == 0 && st.ns > 0 {
		ideal = 1
	}
	st.cost.IdealTransactions += ideal

	sectors := st.sectors[:st.ns]
	refSortU64(sectors)
	sectorsPerLine := t.spec.LineBytes / t.spec.SectorBytes
	if sectorsPerLine == 0 {
		sectorsPerLine = 1
	}
	for _, s := range sectors {
		line := s / sectorsPerLine
		switch {
		case t.l1.Access(line):
			st.cost.L1Hits++
			st.cost.ModeledCycles += t.spec.L1HitCycles
		case t.l2 != nil && t.l2.Access(line):
			st.cost.L2Hits++
			st.cost.ModeledCycles += t.spec.L2HitCycles
		default:
			st.cost.MemTransactions++
			st.cost.ModeledCycles += t.spec.DRAMCycles
		}
	}
	st.n = 0
	st.bytes = 0
	st.ns = 0
}

func (t *refTracker) Finish(base func(entry int) uint64) *KernelCost {
	refSort32(t.touched)
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

func refSortU64(v []uint64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func refSort32(v []int32) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// fuzzSpecs are the geometries the differential fuzzer runs over: the two
// device models and the shrunken test spec, whose small caches evict
// within a few launches.
var fuzzSpecs = []Spec{
	SpecFor("NVIDIA GeForce RTX 3090 (sim)", 400, 24, 90_000, 40_000),
	SpecFor("NVIDIA A100 (sim)", 360, 22, 80_000, 36_000),
	SpecFor("test device", 400, 16, 1_000, 500),
}

// byteReader hands out fuzz bytes one at a time, then zeros once the
// input runs out, so every input decodes to a complete program.
type byteReader struct{ b []byte }

func (r *byteReader) next() int {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return int(v)
}

// fuzzAccess is one decoded memory instruction.
type fuzzAccess struct {
	entry int
	addr  uint64
	size  uint32
}

// Access shapes the decoder emits for one run of accesses.
const (
	shapeUnit = iota
	shapeStrided
	shapeIrregular
	shapeBroadcast
)

// decodeLaunch turns fuzz bytes into one launch: a hit-table size (one
// byte, 1-4 entries), a run count (one byte, 1-6 runs) and the runs. Each
// run header is four bytes:
//
//	op:     bits 0-1 the shape (unit, strided, irregular, broadcast),
//	        bit 2 interleaves the run round-robin across every entry,
//	        bit 3 folds the run's offsets into the entry's first 1 KiB,
//	        a lookup table, bits 4-7 pick the starting entry;
//	count:  count+1 accesses, so a run spans up to eight warp groups;
//	size:   size%41 bytes, so accesses may be empty, misaligned, or cross
//	        one or two sector boundaries;
//	param:  the starting byte offset, which misaligns the run; for
//	        strided runs also the stride, in 8-byte steps; the irregular
//	        scatter is seeded from it.
//
// Entry e owns the 64 KiB region at e<<16, so a strided run of wide
// accesses can touch more than 64 distinct sectors in one warp group.
func decodeLaunch(r *byteReader) (entries int, accs []fuzzAccess) {
	entries = 1 + r.next()%4
	runs := 1 + r.next()%6
	for ; runs > 0; runs-- {
		op, count, size, param := r.next(), 1+r.next(), uint32(r.next()%41), r.next()
		shape, interleave, table, entry := op&3, op&4 != 0, op&8 != 0, (op>>4)%entries
		off := uint64(param)
		stride := 8 * (1 + uint64(param))
		x := uint64(param)*2654435761 + 1
		for i := 0; i < count; i++ {
			e := entry
			if interleave {
				e = (entry + i) % entries
			}
			var a uint64
			switch shape {
			case shapeUnit:
				a = off + uint64(i)*uint64(size)
			case shapeStrided:
				a = off + uint64(i)*stride
			case shapeIrregular:
				x = x*6364136223846793005 + 1442695040888963407
				a = x >> 33
			case shapeBroadcast:
				a = off
			}
			if table {
				a %= 1 << 10
			}
			accs = append(accs, fuzzAccess{entry: e, addr: uint64(e)<<16 + a%(64<<10), size: size})
		}
	}
	return entries, accs
}

// FuzzTrackerMatchesReference decodes the fuzz input into a run of
// launches sharing one L2 and checks that the fast Tracker, reused across
// launches through Reset, produces exactly the reference model's
// KernelCost for every launch, holds the same lines in its L1 after each
// launch, and leaves the same lines in the L2 at the end.
//
// Input layout: byte 0 picks the spec, byte 1 the launch count (1-4),
// then decodeLaunch reads each launch in turn. The seed corpus in
// testdata/fuzz covers every access shape.
func FuzzTrackerMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{b: data}
		spec := fuzzSpecs[r.next()%len(fuzzSpecs)]
		launches := 1 + r.next()%4

		l2 := NewCache(spec.L2Sets, spec.L2Ways)
		refL2 := newRefCache(spec.L2Sets, spec.L2Ways)
		tr := NewTracker(spec, l2, 0)
		base := func(e int) uint64 { return uint64(e) << 16 }
		for l := 0; l < launches; l++ {
			entries, accs := decodeLaunch(r)
			tr.Reset(entries)
			ref := newRefTracker(spec, refL2, entries)
			for _, a := range accs {
				tr.Access(a.entry, a.addr, a.size)
				ref.Access(a.entry, a.addr, a.size)
			}
			got, want := tr.Finish(base), ref.Finish(base)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("launch %d (%d accesses): cost\n got %+v\nwant %+v", l, len(accs), got, want)
			}
			if !sameLines(tr.l1, ref.l1) {
				t.Fatalf("launch %d: L1 lines differ from the reference", l)
			}
		}
		if !sameLines(l2, refL2) {
			t.Fatal("L2 lines differ from the reference")
		}
	})
}

// sameLines reports whether each set of c holds the reference cache's
// lines in recency order, most recent first, then its empty ways: the
// same lines as the reference and the same LRU order.
func sameLines(c *Cache, ref *refCache) bool {
	if len(c.tags) != len(ref.tags) || c.nways != ref.ways {
		return false
	}
	want := make([]int, ref.ways)
	for base := 0; base < len(ref.tags); base += ref.ways {
		want = want[:0]
		for i := base; i < base+ref.ways; i++ {
			if ref.tags[i] != 0 {
				want = append(want, i)
			}
		}
		sort.Slice(want, func(a, b int) bool { return ref.stamps[want[a]] > ref.stamps[want[b]] })
		for w := 0; w < ref.ways; w++ {
			var tag uint64
			if w < len(want) {
				tag = ref.tags[want[w]]
			}
			if c.tags[base+w] != tag {
				return false
			}
		}
	}
	return true
}
