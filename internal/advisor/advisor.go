// Package advisor estimates the memory benefit of applying DrGPUM's
// suggestions before anyone edits code: it replays the data-object timeline
// with every object-level and sizing fix applied —
//
//   - early allocations deferred to the first access,
//   - late deallocations (and leaks of used objects) freed right after the
//     last access,
//   - unused allocations and leaked-never-used objects removed,
//   - temporarily idle objects offloaded for their idle windows, and
//   - overallocated / structured-access objects shrunk to their accessed
//     or per-slice footprint —
//
// and reports the hypothetical peak. The paper's Table 4 is the ground
// truth for this estimate: the repository's integration tests check the
// advisor's predicted reduction against the measured reduction of each
// workload's hand-optimized variant.
package advisor

import (
	"cmp"
	"slices"
	"sort"

	"drgpum/internal/pattern"
	"drgpum/internal/trace"
)

// Estimate is the what-if analysis result.
type Estimate struct {
	// OriginalPeak is the data-object peak of the recorded run.
	OriginalPeak uint64
	// EstimatedPeak is the peak after applying every suggestion.
	EstimatedPeak uint64
	// ReductionPct is the predicted peak reduction.
	ReductionPct float64
	// RemovedBytes sums allocations eliminated outright (unused objects).
	RemovedBytes uint64
	// ShrunkBytes sums bytes trimmed from overallocated/structured objects.
	ShrunkBytes uint64
}

// interval is a half-open live window [start, end) in topological time.
type interval struct {
	start, end uint64
}

// delta is one step of a live-bytes profile: bytes become (or stop being)
// resident at a topological timestamp.
type delta struct {
	topo  uint64
	bytes int64
}

// appendLive appends the deltas of size bytes resident over iv, if iv is
// not empty.
func appendLive(ds []delta, iv interval, size int64) []delta {
	if iv.end <= iv.start {
		return ds
	}
	return append(ds, delta{topo: iv.start, bytes: size}, delta{topo: iv.end, bytes: -size})
}

// horizonOf returns the timestamp just past the last API: the end of the
// lifetime of an object that is never freed.
func horizonOf(t *trace.Trace) uint64 {
	var maxTopo uint64
	for _, a := range t.APIs {
		if a.Topo > maxTopo {
			maxTopo = a.Topo
		}
	}
	return maxTopo + 1
}

// lifetime returns the recorded live window of o, ending at horizon for an
// object that is never freed. It is empty when the free does not come after
// the allocation in topological time.
func lifetime(t *trace.Trace, o *trace.Object, horizon uint64) interval {
	iv := interval{start: t.API(o.AllocAPI).Topo, end: horizon}
	if o.Freed() {
		iv.end = t.API(uint64(o.FreeAPI)).Topo
	}
	return iv
}

// objFix is what a set of findings prescribes for one object. The zero
// value changes nothing.
type objFix struct {
	early, late, unused, leak bool
	idle                      []pattern.IdleWindow
	newSize                   uint64
	resized                   bool
}

// fixFor returns the fix one finding prescribes for its object.
func fixFor(t *trace.Trace, f *pattern.Finding) objFix {
	var fx objFix
	switch f.Pattern {
	case pattern.EarlyAllocation:
		fx.early = true
	case pattern.LateDeallocation:
		fx.late = true
	case pattern.UnusedAllocation:
		fx.unused = true
	case pattern.MemoryLeak:
		fx.leak = true
	case pattern.TemporaryIdleness:
		fx.idle = f.Windows
	case pattern.Overallocation, pattern.StructuredAccess:
		if o := t.Object(f.Object); f.WastedBytes < o.Size {
			fx.newSize, fx.resized = o.Size-f.WastedBytes, true
		}
	}
	return fx
}

// merge folds another finding's fix for the same object into fx.
func (fx *objFix) merge(g objFix) {
	fx.early = fx.early || g.early
	fx.late = fx.late || g.late
	fx.unused = fx.unused || g.unused
	fx.leak = fx.leak || g.leak
	fx.idle = append(fx.idle, g.idle...)
	// Several sizing findings: keep the strongest shrink.
	if g.resized && (!fx.resized || g.newSize < fx.newSize) {
		fx.newSize, fx.resized = g.newSize, true
	}
}

// changesNothing reports whether fx leaves every object as recorded.
func (fx *objFix) changesNothing() bool {
	return !fx.early && !fx.late && !fx.unused && !fx.leak && len(fx.idle) == 0 && !fx.resized
}

// apply returns the size o occupies and the intervals it is resident in
// once fx is applied to its recorded lifetime lt: none for a removed
// allocation. The intervals are sorted and disjoint, and reuse ivs's
// backing array.
func (fx *objFix) apply(t *trace.Trace, o *trace.Object, lt interval, ivs []interval) (uint64, []interval) {
	ivs = ivs[:0]
	if fx.unused {
		return 0, ivs // the allocation is deleted
	}
	size := o.Size
	if fx.resized {
		size = fx.newSize
	}
	if fx.early {
		if fa := o.FirstAccess(); fa != nil {
			lt.start = t.API(fa.API).Topo
		}
	}
	if fx.late || fx.leak {
		if la := o.LastAccess(); la != nil {
			lt.end = t.API(la.API).Topo + 1
		}
	}
	if lt.end <= lt.start {
		return size, ivs
	}
	ivs = append(ivs, lt)
	// Split the live window around offloaded idle gaps.
	for _, w := range fx.idle {
		ivs = subtract(ivs, interval{start: t.API(w.FromAPI).Topo + 1, end: t.API(w.ToAPI).Topo})
	}
	return size, ivs
}

// Advise computes the estimate from an annotated trace and its findings.
func Advise(t *trace.Trace, findings []pattern.Finding) Estimate {
	horizon := horizonOf(t)

	fixes := make([]objFix, len(t.Objects))
	for i := range findings {
		f := &findings[i]
		fixes[f.Object].merge(fixFor(t, f))
	}

	est := Estimate{}
	var origDeltas, newDeltas []delta
	var ivs []interval
	for _, o := range t.Objects {
		if o.PoolSegment {
			continue
		}
		lt := lifetime(t, o, horizon)
		origDeltas = appendLive(origDeltas, lt, int64(o.Size))

		fx := &fixes[o.ID]
		if fx.unused {
			est.RemovedBytes += o.Size
		} else if fx.resized {
			est.ShrunkBytes += o.Size - fx.newSize
		}
		var size uint64
		size, ivs = fx.apply(t, o, lt, ivs)
		for _, iv := range ivs {
			newDeltas = appendLive(newDeltas, iv, int64(size))
		}
	}

	peakOf := func(ds []delta) uint64 {
		sort.Slice(ds, func(i, j int) bool {
			if ds[i].topo != ds[j].topo {
				return ds[i].topo < ds[j].topo
			}
			// Frees before allocations at the same timestamp: a deferred
			// allocation can reuse memory freed at that instant.
			return ds[i].bytes < ds[j].bytes
		})
		var cur int64
		var peakBytes int64
		for _, d := range ds {
			cur += d.bytes
			if cur > peakBytes {
				peakBytes = cur
			}
		}
		return uint64(peakBytes)
	}

	est.OriginalPeak = peakOf(origDeltas)
	est.EstimatedPeak = peakOf(newDeltas)
	if est.OriginalPeak > 0 {
		est.ReductionPct = float64(est.OriginalPeak-est.EstimatedPeak) / float64(est.OriginalPeak) * 100
	}
	return est
}

// MarginalSavings estimates, for each finding, the peak reduction from
// applying that finding's fix alone — the prioritization signal the paper's
// severity metrics approximate. A finding whose object never contributes to
// the peak has zero marginal savings even if it wastes many bytes, which is
// exactly the distinction a developer planning fixes needs.
//
// Each estimate equals Advise's EstimatedPeak for that one finding,
// subtracted from the recorded peak, without replaying the timeline per
// finding. The recorded live-bytes profile is built once, as a step
// function over the distinct lifetime endpoints under a range-maximum
// tree. A single fix changes one object only: it subtracts the object's
// size over its recorded lifetime and adds its new size over each interval
// the fix leaves it resident. Those few boundaries cut the timeline into
// segments with a constant adjustment each, so the new peak is the largest
// range maximum plus adjustment. Advise reads its running total after
// every delta, frees first at equal timestamps, so the highest value it
// sees is the step function's maximum: the two agree exactly, in integers.
// The cost is O(N log N) once for N objects plus O(k log N) for a finding
// whose fix leaves k intervals.
func MarginalSavings(t *trace.Trace, findings []pattern.Finding) []uint64 {
	out := make([]uint64, len(findings))
	if len(findings) == 0 {
		return out
	}
	horizon := horizonOf(t)
	p := newProfile(t, horizon)
	var ivs []interval
	var adj []delta
	for i := range findings {
		f := &findings[i]
		fx := fixFor(t, f)
		if fx.changesNothing() {
			continue
		}
		o := t.Object(f.Object)
		if o.PoolSegment {
			continue // Advise leaves pool segments out of every profile
		}
		lt := lifetime(t, o, horizon)
		var size uint64
		size, ivs = fx.apply(t, o, lt, ivs)
		adj = appendLive(adj[:0], lt, -int64(o.Size))
		for _, iv := range ivs {
			adj = appendLive(adj, iv, int64(size))
		}
		if peak := p.peakWith(adj); peak < p.peak {
			out[i] = uint64(p.peak - peak)
		}
	}
	return out
}

// profile is the recorded live-bytes step function of a trace: from ts[i]
// until ts[i+1], exactly the value of step i is live, and nothing is live
// before ts[0] or from the last endpoint on. tree is a max segment tree
// over the step values: leaf i is tree[len(ts)+i], and every inner node
// holds the larger of its two children.
type profile struct {
	ts   []uint64
	tree []int64
	peak int64
	end  uint64 // the horizon: no lifetime reaches past it
}

// newProfile builds the profile Advise's OriginalPeak reads: every
// non-pool object's non-empty lifetime.
func newProfile(t *trace.Trace, horizon uint64) *profile {
	var ds []delta
	for _, o := range t.Objects {
		if !o.PoolSegment {
			ds = appendLive(ds, lifetime(t, o, horizon), int64(o.Size))
		}
	}
	steps := foldSteps(ds)
	m := len(steps)
	p := &profile{ts: make([]uint64, m), tree: make([]int64, 2*m), end: horizon}
	for i, s := range steps {
		p.ts[i] = s.topo
		p.tree[m+i] = s.bytes
		p.peak = max(p.peak, s.bytes)
	}
	for j := m - 1; j > 0; j-- {
		p.tree[j] = max(p.tree[2*j], p.tree[2*j+1])
	}
	return p
}

// foldSteps sorts ds by timestamp and folds it, in place, into the step
// function it describes: one entry per distinct timestamp, holding the
// running total once every delta at that timestamp has applied.
func foldSteps(ds []delta) []delta {
	slices.SortFunc(ds, func(a, b delta) int { return cmp.Compare(a.topo, b.topo) })
	steps := ds[:0]
	var cur int64
	for i := 0; i < len(ds); {
		at := ds[i].topo
		for ; i < len(ds) && ds[i].topo == at; i++ {
			cur += ds[i].bytes
		}
		steps = append(steps, delta{topo: at, bytes: cur})
	}
	return steps
}

// stepAt returns the index of the step in force at timestamp x, or -1
// before the first one.
func (p *profile) stepAt(x uint64) int {
	i, found := slices.BinarySearch(p.ts, x)
	if !found {
		i--
	}
	return i
}

// maxOver returns the most bytes live at any time in [from, to), from < to.
func (p *profile) maxOver(from, to uint64) int64 {
	// Live bytes are never negative, and the times before the first step
	// hold none, so 0 is a safe floor.
	var best int64
	lo, hi := max(p.stepAt(from), 0), p.stepAt(to-1)
	m := len(p.ts)
	for l, r := lo+m, hi+1+m; l < r; l, r = l>>1, r>>1 {
		if l&1 == 1 {
			best = max(best, p.tree[l])
			l++
		}
		if r&1 == 1 {
			r--
			best = max(best, p.tree[r])
		}
	}
	return best
}

// peakWith returns the peak of the profile with the deltas adj added,
// reusing adj's backing array. Between two consecutive timestamps of adj
// the added amount is constant, so the highest value over each such
// segment is its range maximum plus that amount.
func (p *profile) peakWith(adj []delta) int64 {
	var peak, cur int64
	var from uint64
	for _, s := range foldSteps(adj) {
		if s.topo > from {
			peak = max(peak, p.maxOver(from, s.topo)+cur)
		}
		from, cur = s.topo, s.bytes
	}
	if from < p.end {
		peak = max(peak, p.maxOver(from, p.end)+cur)
	}
	return peak
}

// subtract removes gap from every interval of the sorted, disjoint ivs,
// splitting where needed. It works in place: only a gap strictly inside
// one interval adds an element.
func subtract(ivs []interval, gap interval) []interval {
	if gap.end <= gap.start {
		return ivs
	}
	// ivs[lo:hi] are the intervals the gap overlaps.
	lo := 0
	for lo < len(ivs) && ivs[lo].end <= gap.start {
		lo++
	}
	hi := lo
	for hi < len(ivs) && ivs[hi].start < gap.end {
		hi++
	}
	if lo == hi {
		return ivs
	}
	var keep [2]interval
	n := 0
	if ivs[lo].start < gap.start {
		keep[n] = interval{start: ivs[lo].start, end: gap.start}
		n++
	}
	if gap.end < ivs[hi-1].end {
		keep[n] = interval{start: gap.end, end: ivs[hi-1].end}
		n++
	}
	tail := len(ivs) - hi
	if n > hi-lo {
		ivs = append(ivs, interval{})
	}
	copy(ivs[lo+n:], ivs[hi:hi+tail])
	copy(ivs[lo:], keep[:n])
	return ivs[:lo+n+tail]
}
