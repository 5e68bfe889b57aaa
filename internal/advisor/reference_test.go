package advisor

import (
	"sort"
	"testing"

	"drgpum/internal/pattern"
	"drgpum/internal/trace"
)

// refMarginalSavings is the per-finding what-if replay MarginalSavings
// replaced, kept as the reference it must match exactly: one full Advise
// per finding, priced against the recorded peak.
func refMarginalSavings(t *trace.Trace, findings []pattern.Finding) []uint64 {
	out := make([]uint64, len(findings))
	base := Advise(t, nil).OriginalPeak
	for i := range findings {
		if est := Advise(t, findings[i:i+1]); est.EstimatedPeak < base {
			out[i] = base - est.EstimatedPeak
		}
	}
	return out
}

// byteReader hands out fuzz bytes one at a time, then zeros once the input
// runs out, so every input decodes to a complete trace.
type byteReader struct{ b []byte }

func (r *byteReader) next() int {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return int(v)
}

// decodeTrace builds a trace and findings straight from fuzz bytes, with no
// device: APIs carry only a timestamp, objects only what the advisor reads.
//
// Layout: a flag byte (bit 0 draws every timestamp independently, so
// lifetimes may run backwards; otherwise timestamps never decrease and
// several APIs may share one), the API count, one byte per timestamp, the
// object count, then per object a flag byte (bit 0 never freed, bit 1 pool
// segment), a size byte, the allocating API, the freeing API's distance
// from it and the access count and APIs. Then the finding count and per
// finding a pattern byte, an object byte and the pattern's payload: the
// idle windows' count and API pairs, or a sizing finding's waste below,
// equal to or above the object's size.
func decodeTrace(data []byte) (*trace.Trace, []pattern.Finding) {
	r := &byteReader{b: data}
	flags := r.next()
	nAPIs := 1 + r.next()%32
	t := &trace.Trace{}
	var topo uint64
	for i := 0; i < nAPIs; i++ {
		if flags&1 != 0 {
			topo = uint64(r.next() % nAPIs)
		} else {
			topo += uint64(r.next() % 3)
		}
		t.APIs = append(t.APIs, &trace.APIInfo{Topo: topo})
	}

	nObjs := 1 + r.next()%8
	for id := 0; id < nObjs; id++ {
		of := r.next()
		o := &trace.Object{
			ID:          trace.ObjectID(id),
			Size:        uint64(1+r.next()%16) * 64,
			AllocAPI:    uint64(r.next() % nAPIs),
			FreeAPI:     trace.NoAPI,
			PoolSegment: of&2 != 0,
		}
		if of&1 == 0 {
			o.FreeAPI = int64(o.AllocAPI) + int64(r.next()%(nAPIs-int(o.AllocAPI)))
		}
		apis := make([]uint64, r.next()%4)
		for i := range apis {
			apis[i] = uint64(r.next() % nAPIs)
		}
		sort.Slice(apis, func(i, j int) bool { return apis[i] < apis[j] })
		for _, a := range apis {
			if n := len(o.Accesses); n == 0 || o.Accesses[n-1].API != a {
				o.Accesses = append(o.Accesses, trace.AccessEvent{API: a, Read: true})
			}
		}
		t.Objects = append(t.Objects, o)
	}

	var fs []pattern.Finding
	for n := r.next() % 12; n > 0; n-- {
		f := pattern.Finding{
			Pattern: pattern.Pattern(r.next() % pattern.NumPatterns),
			Object:  trace.ObjectID(r.next() % nObjs),
		}
		switch f.Pattern {
		case pattern.TemporaryIdleness:
			for w := r.next() % 4; w > 0; w-- {
				f.Windows = append(f.Windows, pattern.IdleWindow{
					FromAPI: uint64(r.next() % nAPIs),
					ToAPI:   uint64(r.next() % nAPIs),
				})
			}
		case pattern.Overallocation, pattern.StructuredAccess:
			size := t.Object(f.Object).Size
			switch b := r.next(); b % 3 {
			case 0:
				f.WastedBytes = size * uint64(b) / 256
			case 1:
				f.WastedBytes = size
			default:
				f.WastedBytes = size + uint64(b)
			}
		}
		fs = append(fs, f)
	}
	return t, fs
}

// FuzzMarginalSavings checks the one-sweep MarginalSavings against the
// per-finding reference on decoded traces. The seed corpus in
// testdata/fuzz covers every pattern, several findings per object,
// overlapping, reversed and empty idle windows, waste below, at and above
// the object size, lifetime fixes on never-accessed objects, lifetimes one
// timestamp wide, leaks, pool segments and shared timestamps.
func FuzzMarginalSavings(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, fs := decodeTrace(data)
		got, want := MarginalSavings(tr, fs), refMarginalSavings(tr, fs)
		for i := range fs {
			if got[i] != want[i] {
				t.Errorf("finding %d (%s on object %d): savings %d, reference %d",
					i, fs[i].Pattern.Abbrev(), fs[i].Object, got[i], want[i])
			}
		}
	})
}

// TestMarginalSavingsBeyondOldCutoff prices a trace far larger than the
// product the advisor used to give up at (findings × objects above two
// million, where every finding got zero savings): 2,100 objects, each live
// for 50 timestamps, and 1,000 findings of five lifetime and sizing kinds.
func TestMarginalSavingsBeyondOldCutoff(t *testing.T) {
	const objects, findings, live = 2100, 1000, 50
	tr := &trace.Trace{}
	for i := 0; i < objects+live+1; i++ {
		tr.APIs = append(tr.APIs, &trace.APIInfo{Topo: uint64(i)})
	}
	for i := 0; i < objects; i++ {
		o := &trace.Object{
			ID:       trace.ObjectID(i),
			Size:     uint64(1+i*7919%997+i) * 16,
			AllocAPI: uint64(i),
			FreeAPI:  int64(i + live),
		}
		if i%3 != 0 {
			o.Accesses = []trace.AccessEvent{{API: uint64(i + 10)}, {API: uint64(i + 20)}}
		}
		tr.Objects = append(tr.Objects, o)
	}
	kinds := []pattern.Pattern{
		pattern.EarlyAllocation, pattern.LateDeallocation, pattern.UnusedAllocation,
		pattern.TemporaryIdleness, pattern.Overallocation,
	}
	var fs []pattern.Finding
	for i := 0; i < findings; i++ {
		obj := trace.ObjectID(i * objects / findings)
		f := pattern.Finding{Pattern: kinds[i%len(kinds)], Object: obj}
		switch f.Pattern {
		case pattern.TemporaryIdleness:
			f.Windows = []pattern.IdleWindow{{FromAPI: uint64(obj) + 10, ToAPI: uint64(obj) + 20}}
		case pattern.Overallocation:
			f.WastedBytes = tr.Object(obj).Size / 2
		}
		fs = append(fs, f)
	}
	if len(fs)*len(tr.Objects) <= 2_000_000 {
		t.Fatalf("trace too small: %d findings × %d objects", len(fs), len(tr.Objects))
	}
	// The reference replays every object per finding, so it checks every
	// seventh finding (7 is coprime with the five kinds, so all are seen).
	got := MarginalSavings(tr, fs)
	nonZero := 0
	for i := 0; i < len(fs); i += 7 {
		want := refMarginalSavings(tr, fs[i:i+1])[0]
		if got[i] != want {
			t.Errorf("finding %d (%s on object %d): savings %d, reference %d",
				i, fs[i].Pattern.Abbrev(), fs[i].Object, got[i], want)
		}
		if want != 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Error("no checked finding has non-zero savings")
	}
}
