package intraobj

import "math"

// histBuckets is the resolution of an object's frequency histogram: the
// GUI's bucket count.
const histBuckets = 32

// summary is what the analysis reads of one object's intra-object maps: the
// accessed-element share and Equation 1's fragmentation of the cumulative
// bitmap, the NUAF variation and the structured-access savings, and the
// frequency histogram. summarize is its only source, so a sealed object's
// stored summary and a live object's computed one agree by construction.
type summary struct {
	accessedPct float64
	fragPct     float64
	count       int // accessed elements
	nuaf        float64
	savings     uint64
	hist        [histBuckets]uint64 // equal-width element ranges
}

// summarize reduces the object's live maps to its summary without
// allocating: one count of the bitmap (plus its longest clear run when some
// element is unaccessed), one prefix-sum pass over the frequency difference
// array for the histogram and the nonzero frequencies' count and sum, and
// one more over the samples for their squared deviations. Both passes skip
// the pages that do not exist, where every frequency is zero, and sums run
// in index order, so every float equals the one the sample-slice formulas
// of §3.2 compute.
func (st *objState) summarize() summary {
	var s summary
	s.count = st.total.Count()
	s.accessedPct = 100
	if st.elems > 0 {
		s.accessedPct = float64(s.count) / float64(st.elems) * 100
	}
	if unaccessed := st.elems - s.count; unaccessed > 0 {
		s.fragPct = (1 - float64(st.total.LargestZeroRun())/float64(unaccessed)) * 100
	}

	// Savings bound of a structured object: all but one slice could be
	// avoided by reusing one slice-sized allocation, with the slice size
	// approximated by the mean slice, i.e. covered/apiTouches.
	if s.count > 0 && st.apiTouches > 0 {
		es := st.obj.ElemWidth()
		if meanSlice := uint64(s.count/st.apiTouches) * es; meanSlice < st.obj.Size {
			s.savings = st.obj.Size - meanSlice
		}
	}

	// Bucket b holds the elements i with i*histBuckets/elems == b: from
	// ceil(b*elems/histBuckets) up to the next bucket's bound, read a page
	// at a time.
	var samples int
	var sum float64
	var f uint32 // the running prefix sum: the current element's frequency
	lo := 0
	for b := range s.hist {
		hi := ((b+1)*st.elems + histBuckets - 1) / histBuckets
		var t uint64
		for lo < hi {
			end := min(hi, (lo|pageMask)+1)
			if p := st.freq[lo>>pageShift]; p != nil {
				off := lo & pageMask
				for _, delta := range p[off : off+end-lo] {
					if f += delta; f != 0 {
						t += uint64(f)
						samples++
						sum += float64(f)
					}
				}
			}
			lo = end
		}
		s.hist[b] = t
	}

	// Variation (Definition 3.9) over the run's cumulative frequencies: per
	// structured-access slice when the object has the SA property (the
	// paper's GramSchmidt analysis sorts slices by access frequency), per
	// accessed element otherwise.
	var mean, ss float64
	if st.structured() { // at least two slices
		samples, sum = len(st.sliceTotals), 0
		for _, t := range st.sliceTotals {
			sum += float64(t)
		}
		mean = sum / float64(samples)
		for _, t := range st.sliceTotals {
			d := float64(t) - mean
			ss += d * d
		}
	} else if samples >= 2 {
		mean = sum / float64(samples)
		f = 0
		// The last slot, slot elems, is no element, but every range has
		// ended by it: its prefix sum is zero, and it adds no sample.
		for _, p := range st.freq {
			for _, delta := range p {
				if f += delta; f != 0 {
					d := float64(f) - mean
					ss += d * d
				}
			}
		}
	}
	if samples >= 2 {
		s.nuaf = excessCV(math.Sqrt(ss/float64(samples))/mean*100, mean)
	}
	return s
}

// summary returns the object's summary: the one stored at Seal, or one
// computed from the live maps into buf.
func (st *objState) summary(buf *summary) *summary {
	if st.sealed != nil {
		return st.sealed
	}
	*buf = st.summarize()
	return buf
}

// Seal finalizes the in-flight API and freezes the intra-object state of
// object id into its summary, releasing its per-API buffers, handing its
// full frequency pages to the recorder's free list and its bitmaps to the
// recorder's spare, which keeps the larger of them and the spare's own
// until a later object's first touch takes it. Once every tracked object
// is sealed the recorder keeps neither. The streaming window manager calls
// this when the object is freed: no further access can attribute to it
// (the collector delisted its range), so every input to the summary is
// final, and Detect, FrequencyHistogram and AccessedPctOf read the stored
// summary instead of the maps.
//
// Finalizing the in-flight API early is equivalent to the offline schedule:
// a free's OnAPI arrives after the accessed kernel's OnAPI, so the closed
// API's totals and bitmaps are exactly what the next API's first access (or
// Flush) would record, and the next kernel's mode decision sees identical
// inputs — mapBytesTotal is deliberately NOT decremented, matching the
// offline recorder, which never shrinks its map-footprint estimate.
func (r *Recorder) Seal(id int) {
	st := r.state(id)
	if st == nil || st.sealed != nil {
		return
	}
	r.finalizeAPI()
	s := st.summarize()
	st.sealed = &s
	if r.unsealed--; r.unsealed == 0 {
		r.spare, r.free = spareMaps{}, pageList{}
	} else {
		r.free.put(st.freq)
		if sp := r.spare.total; sp == nil || cap(st.total.words) > cap(sp.words) {
			r.spare = spareMaps{st.total, st.curTouched}
		}
	}
	st.page, st.freq = nil, nil
	st.total = nil
	st.curTouched = nil
	st.spill = nil
	st.sliceTotals = nil
}
