package intraobj

import (
	"math"
	"reflect"
	"testing"

	"drgpum/internal/gpu"
	"drgpum/internal/trace"
)

// refSummary is an object's summary by the formulas that computed it before
// summarize, kept as the reference FuzzSummaryMatchesReference checks
// summarize against: a bitmap count per value, the per-element largest
// clear run, the NUAF variation over a slice of samples, and a histogram
// that divides per element to find each element's bucket.
func refSummary(st *objState) summary {
	s := summary{
		accessedPct: refAccessedPct(st.total),
		fragPct:     refFragmentation(st.total),
		count:       st.total.Count(),
		nuaf:        refNUAFVariation(st),
		savings:     refStructuredSavings(st),
	}
	for i, f := range st.totalFreq {
		b := i * histBuckets / st.elems
		if b >= histBuckets {
			b = histBuckets - 1
		}
		s.hist[b] += uint64(f)
	}
	return s
}

func refAccessedPct(b *Bitmap) float64 {
	if b.n == 0 {
		return 100
	}
	return float64(b.Count()) / float64(b.n) * 100
}

// refFragmentation is Equation 1 over the per-element model of the bitmap.
func refFragmentation(b *Bitmap) float64 {
	unaccessed := b.n - b.Count()
	if unaccessed == 0 {
		return 0
	}
	elems := make([]bool, b.n)
	for i := range elems {
		elems[i] = b.Get(i)
	}
	return (1 - float64(refLargestZeroRun(elems))/float64(unaccessed)) * 100
}

func refNUAFVariation(st *objState) float64 {
	var samples []float64
	if st.structured() {
		samples = make([]float64, 0, len(st.sliceTotals))
		for _, t := range st.sliceTotals {
			samples = append(samples, float64(t))
		}
	} else {
		for _, f := range st.totalFreq {
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

func refStructuredSavings(st *objState) uint64 {
	covered := st.total.Count()
	if covered == 0 || st.apiTouches == 0 {
		return 0
	}
	es := uint64(st.obj.ElemSize)
	if es == 0 {
		es = 4
	}
	meanSlice := uint64(covered/st.apiTouches) * es
	if meanSlice >= st.obj.Size {
		return 0
	}
	return st.obj.Size - meanSlice
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
// delivers the kernels to a recorder, and checks every object's summary
// against refSummary: computed from the live maps, stored by Seal between
// kernels or after the last, and read back through Detect,
// FrequencyHistogram and AccessedPctOf.
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
		for i := range objs {
			elems := 1 + (r.next()<<8|r.next())%300
			es := fuzzElemSizes[r.next()%len(fuzzElemSizes)]
			objs[i] = &trace.Object{
				ID:       trace.ObjectID(i),
				Ptr:      gpu.DevicePtr(0x1000_0000 + i<<16),
				Size:     uint64(elems) * uint64(es),
				ElemSize: es,
			}
		}

		// seal checks object id's live summary, seals it, and checks the
		// stored one, both against the reference.
		sealed := make([]bool, len(objs))
		seal := func(id int) {
			st := rec.state(id)
			if st == nil || sealed[id] {
				return
			}
			rec.Flush()
			want := refSummary(st)
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
