package intraobj

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"drgpum/internal/gpu"
	"drgpum/internal/trace"
)

// refObject is FuzzSummaryMatchesReference's own account of what it
// delivered to one object, each access clamped to the object's elements
// as the recorder clamps it: the per-element access counts, each touching
// API's total in API order, the structured-access verdict, and the API
// with the largest total. It reads none of the recorder's maps, so the
// oracle checks how the recorder ingests accesses as well as how it
// reduces them.
type refObject struct {
	obj       *trace.Object
	seen      bool     // some access was attributed to the object
	freq      []uint64 // per element
	slices    []uint64 // per touching API, its access total
	overlap   bool     // an API touched an element an earlier API had
	nonContig bool     // an API's touched elements had a gap
	hotKernel string   // the earliest API with the largest total
	hotTotal  uint64
	hotAPI    uint64
}

// deliver accounts for the accesses of batch, API api's, that carry the
// object's tag.
func (m *refObject) deliver(api *gpu.APIRecord, batch []gpu.MemAccess) {
	es := m.obj.ElemWidth()
	cnt := make([]uint64, len(m.freq))
	for _, a := range batch {
		if a.Tag != trace.ObjectTag(m.obj.ID) || a.Size == 0 {
			continue
		}
		m.seen = true
		off := uint64(a.Addr - m.obj.Ptr)
		for i := int(off / es); i <= min(int((off+uint64(a.Size)-1)/es), len(cnt)-1); i++ {
			cnt[i]++
		}
	}
	first, last, n := -1, -1, 0
	var total uint64
	for i, c := range cnt {
		if c == 0 {
			continue
		}
		if m.freq[i] != 0 {
			m.overlap = true
		}
		if first < 0 {
			first = i
		}
		last = i
		n++
		m.freq[i] += c
		total += c
	}
	if n == 0 {
		return
	}
	if n != last-first+1 {
		m.nonContig = true
	}
	m.slices = append(m.slices, total)
	if total > m.hotTotal {
		m.hotKernel, m.hotTotal, m.hotAPI = api.Name, total, api.Index
	}
}

// structured is Definition 3.10 over the model.
func (m *refObject) structured() bool {
	return len(m.slices) >= 2 && !m.overlap && !m.nonContig
}

// refSummary is the object's summary by the formulas that computed it
// before summarize, over the model's counts: a count of the accessed
// elements, the per-element largest clear run, the NUAF variation over a
// slice of samples, and a histogram that divides per element to find
// each element's bucket.
func refSummary(m *refObject) summary {
	accessed := make([]bool, len(m.freq))
	count := 0
	for i, f := range m.freq {
		if accessed[i] = f != 0; accessed[i] {
			count++
		}
	}
	s := summary{
		accessedPct: refAccessedPct(count, len(m.freq)),
		fragPct:     refFragmentation(accessed, count),
		count:       count,
		nuaf:        refNUAFVariation(m),
		savings:     refStructuredSavings(m, count),
	}
	for i, f := range m.freq {
		b := i * histBuckets / len(m.freq)
		if b >= histBuckets {
			b = histBuckets - 1
		}
		s.hist[b] += f
	}
	return s
}

func refAccessedPct(count, elems int) float64 {
	if elems == 0 {
		return 100
	}
	return float64(count) / float64(elems) * 100
}

// refFragmentation is Equation 1 over the per-element accessed flags.
func refFragmentation(accessed []bool, count int) float64 {
	unaccessed := len(accessed) - count
	if unaccessed == 0 {
		return 0
	}
	return (1 - float64(refLargestZeroRun(accessed))/float64(unaccessed)) * 100
}

func refNUAFVariation(m *refObject) float64 {
	var samples []float64
	if m.structured() {
		samples = make([]float64, 0, len(m.slices))
		for _, t := range m.slices {
			samples = append(samples, float64(t))
		}
	} else {
		for _, f := range m.freq {
			if f > 0 {
				samples = append(samples, float64(f))
			}
		}
	}
	if len(samples) < 2 {
		return 0
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	mean := sum / float64(len(samples))
	return excessCV(refCoefficientOfVariation(samples), mean)
}

// refCoefficientOfVariation returns stddev/mean of the samples, in percent.
// A zero mean yields zero.
func refCoefficientOfVariation(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, f := range samples {
		sum += f
	}
	mean := sum / float64(len(samples))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, f := range samples {
		d := f - mean
		ss += d * d
	}
	std := math.Sqrt(ss / float64(len(samples)))
	return std / mean * 100
}

func refStructuredSavings(m *refObject, covered int) uint64 {
	if covered == 0 || len(m.slices) == 0 {
		return 0
	}
	es := uint64(m.obj.ElemSize)
	if es == 0 {
		es = 4
	}
	meanSlice := uint64(covered/len(m.slices)) * es
	if meanSlice >= m.obj.Size {
		return 0
	}
	return m.obj.Size - meanSlice
}

// checkIngest fails t unless the recorder's per-API totals, structured-
// access verdict and hot kernel of a live object equal the model's.
func checkIngest(t *testing.T, id int, st *objState, m *refObject) {
	t.Helper()
	if !slices.Equal(st.sliceTotals, m.slices) {
		t.Fatalf("object %d: sliceTotals %v, reference %v", id, st.sliceTotals, m.slices)
	}
	if st.structured() != m.structured() {
		t.Fatalf("object %d: structured() = %v, reference %v", id, st.structured(), m.structured())
	}
	if st.hotKernel != m.hotKernel || st.hotKernelTotal != m.hotTotal || st.lastAPI != m.hotAPI {
		t.Fatalf("object %d: hot kernel %q total %d at API %d, reference %q total %d at API %d",
			id, st.hotKernel, st.hotKernelTotal, st.lastAPI, m.hotKernel, m.hotTotal, m.hotAPI)
	}
}

// checkSummary fails t unless got equals want field by field, floats bit
// for bit.
func checkSummary(t *testing.T, what string, got, want summary) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"accessedPct", got.accessedPct, want.accessedPct},
		{"fragPct", got.fragPct, want.fragPct},
		{"nuaf", got.nuaf, want.nuaf},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Fatalf("%s: %s = %v (%#x), reference %v (%#x)", what, f.name,
				f.got, math.Float64bits(f.got), f.want, math.Float64bits(f.want))
		}
	}
	if got.count != want.count || got.savings != want.savings || got.hist != want.hist {
		t.Fatalf("%s: count %d savings %d hist %v, reference count %d savings %d hist %v",
			what, got.count, got.savings, got.hist, want.count, want.savings, want.hist)
	}
}

func checkHistogram(t *testing.T, what string, h []uint64, want summary) {
	t.Helper()
	if len(h) != histBuckets || [histBuckets]uint64(h) != want.hist {
		t.Fatalf("%s FrequencyHistogram = %v, reference %v", what, h, want.hist)
	}
}

// fuzzBytes reads a fuzz input one byte at a time, zeros once it runs out.
type fuzzBytes struct{ b []byte }

func (r *fuzzBytes) next() int {
	if len(r.b) == 0 {
		return 0
	}
	v := int(r.b[0])
	r.b = r.b[1:]
	return v
}

// fuzzElemSizes are the decoded element widths: byte, u32, u64 and a
// 12-byte struct, whose offsets become element indices by division.
var fuzzElemSizes = [...]uint32{1, 4, 8, 12}

// FuzzSummaryMatchesReference decodes objects of 1-300 elements and a few
// kernels of pointwise, ranged, strided and slice-shaped accesses to them,
// delivers the kernels to a recorder and to a refObject per object, and
// checks every object against its model: the per-API totals, the
// structured-access verdict and the hot kernel of the live state, and the
// summary, computed from the live maps, stored by Seal between kernels or
// after the last, and read back through Detect, FrequencyHistogram and
// AccessedPctOf. Sealing an object between kernels hands its maps to a
// later object's first touch when they fit.
//
// Input layout: flags (bit 0 host-side map updates, bit 1 seal an object
// after each kernel), the object count, per object two bytes of element
// count and one of element size, the kernel count, then per kernel its
// access groups: a count, and per group the object, the shape, a start,
// a length, a stride or byte offset and a repeat count.
func FuzzSummaryMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzBytes{b: data}
		flags := r.next()
		var capacity uint64
		if flags&1 != 0 {
			capacity = 1
		}
		rec := NewRecorder(capacity)

		objs := make([]*trace.Object, 1+r.next()%4)
		model := make([]*refObject, len(objs))
		for i := range objs {
			elems := 1 + (r.next()<<8|r.next())%300
			es := fuzzElemSizes[r.next()%len(fuzzElemSizes)]
			objs[i] = &trace.Object{
				ID:       trace.ObjectID(i),
				Ptr:      gpu.DevicePtr(0x1000_0000 + i<<16),
				Size:     uint64(elems) * uint64(es),
				ElemSize: es,
			}
			model[i] = &refObject{obj: objs[i], freq: make([]uint64, elems)}
		}

		// seal checks object id's live state and summary, seals it, and
		// checks the stored summary, all against the object's model.
		sealed := make([]bool, len(objs))
		seal := func(id int) {
			st := rec.state(id)
			if (st != nil) != model[id].seen {
				t.Fatalf("object %d: state %v, reference saw accesses %v", id, st != nil, model[id].seen)
			}
			if st == nil || sealed[id] {
				return
			}
			rec.Flush()
			checkIngest(t, id, st, model[id])
			want := refSummary(model[id])
			checkSummary(t, "live", st.summarize(), want)
			checkHistogram(t, "live", rec.FrequencyHistogram(id), want)
			rec.Seal(id)
			sealed[id] = true
			checkSummary(t, "sealed", *st.sealed, want)
			checkHistogram(t, "sealed", rec.FrequencyHistogram(id), want)
		}

		kernels := 1 + r.next()%6
		for k := 0; k < kernels; k++ {
			api := &gpu.APIRecord{Kind: gpu.APIKernel, Name: string(rune('a' + k%3)), Index: uint64(k), Instrumented: true}
			var batch []gpu.MemAccess
			for g := r.next() % 6; g > 0; g-- {
				id := r.next() % len(objs)
				shape, start, length, param, reps := r.next(), r.next(), r.next(), r.next(), r.next()%3+1
				// A sealed object was freed: no access reaches it.
				if !sealed[id] {
					batch = fuzzAccesses(batch, objs[id], shape, start, length, param, reps, k, kernels)
				}
			}
			rec.ObjectAccessBatch(api, batch, objs)
			for _, m := range model {
				m.deliver(api, batch)
			}
			if flags&2 != 0 {
				seal(r.next() % len(objs))
			}
		}

		live := rec.Detect(DefaultConfig())
		pct := make([]float64, len(objs))
		for id := range objs {
			pct[id], _ = rec.AccessedPctOf(id)
			seal(id)
		}
		if sealedFindings := rec.Detect(DefaultConfig()); !reflect.DeepEqual(sealedFindings, live) {
			t.Fatalf("findings after Seal %+v, live %+v", sealedFindings, live)
		}
		for id := range objs {
			if got, _ := rec.AccessedPctOf(id); math.Float64bits(got) != math.Float64bits(pct[id]) {
				t.Fatalf("AccessedPctOf(%d) = %v after Seal, %v live", id, got, pct[id])
			}
		}
	})
}

// fuzzAccesses appends one group of accesses to object o, shaped by shape:
// pointwise element reads from start, one ranged access of length bytes at
// a byte offset, strided element reads, or kernel k's slice of kernels
// equal slices, each repeated reps times.
func fuzzAccesses(batch []gpu.MemAccess, o *trace.Object, shape, start, length, param, reps, k, kernels int) []gpu.MemAccess {
	elems := o.Elems()
	es := int(o.ElemSize)
	add := func(off, size int) {
		if off >= int(o.Size) {
			return
		}
		size = min(size, int(o.Size)-off)
		batch = append(batch, gpu.MemAccess{
			Addr: o.Ptr + gpu.DevicePtr(off), Size: uint32(size),
			Space: gpu.SpaceGlobal, Tag: trace.ObjectTag(o.ID),
		})
	}
	start %= elems
	for ; reps > 0; reps-- {
		switch shape % 4 {
		case 0: // pointwise
			for i := start; i < min(start+length, elems); i++ {
				add(i*es, es)
			}
		case 1: // ranged, at any byte offset
			add(start*es+param%es, 1+length*es/4)
		case 2: // strided
			for i := start; i < elems; i += 1 + param%8 {
				add(i*es, es)
			}
		case 3: // kernel k's slice
			for i := k * elems / kernels; i < (k+1)*elems/kernels; i++ {
				add(i*es, es)
			}
		}
	}
	return batch
}
