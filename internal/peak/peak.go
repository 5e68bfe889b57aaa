// Package peak implements the offline analyzer's memory-peak mining
// (paper §4): it computes the device-memory timeline of a trace, finds the
// top-K peaks, and attributes the data objects live at each peak so the GUI
// can narrow the user's investigation to objects on the critical path.
package peak

import (
	"sort"

	"drgpum/internal/trace"
)

// Peak is one local maximum of the device-memory timeline.
type Peak struct {
	// Topo is the topological timestamp at which the peak occurs.
	Topo uint64
	// Bytes is the live device memory at the peak.
	Bytes uint64
	// Live lists the objects alive at the peak, largest first.
	Live []trace.ObjectID
}

// Analysis is the result of peak mining over one trace.
type Analysis struct {
	// Timeline is live bytes per topological timestamp.
	Timeline []uint64
	// Peaks are the top-K peaks, highest first.
	Peaks []Peak
	// PeakBytes is the global maximum of the timeline.
	PeakBytes uint64
	// Candidates is how many local maxima the miner considered before
	// keeping the top K (a self-observability counter).
	Candidates int
	// onPeak marks objects live at any reported peak.
	onPeak map[trace.ObjectID]bool
}

// AnalyzeTimeline mines the top-K memory peaks of an annotated trace from
// its live-bytes timeline (Trace.LiveBytesTimelineTo, bounded by the
// largest timestamp the dependency pass assigned). The paper's default
// reports the top two peaks (K=2, user-tunable); topK <= 0 selects it.
func AnalyzeTimeline(t *trace.Trace, topK int, timeline []uint64) *Analysis {
	if topK <= 0 {
		topK = 2
	}
	a := &Analysis{
		Timeline: timeline,
		onPeak:   make(map[trace.ObjectID]bool),
	}
	if len(a.Timeline) == 0 {
		return a
	}

	// Local maxima of the timeline: points not lower than either neighbour,
	// deduplicating plateaus to their first timestamp.
	type cand struct {
		topo  uint64
		bytes uint64
	}
	var cands []cand
	n := len(a.Timeline)
	for i := 0; i < n; i++ {
		v := a.Timeline[i]
		if v == 0 {
			continue
		}
		if i > 0 && a.Timeline[i-1] >= v {
			continue // not rising into i (also skips plateau continuations)
		}
		if i+1 < n && a.Timeline[i+1] > v {
			continue // still rising
		}
		// Plateau: extend to its end before comparing the next slope.
		j := i
		for j+1 < n && a.Timeline[j+1] == v {
			j++
		}
		if j+1 < n && a.Timeline[j+1] > v {
			continue
		}
		cands = append(cands, cand{topo: uint64(i), bytes: v})
		if v > a.PeakBytes {
			a.PeakBytes = v
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].bytes != cands[j].bytes {
			return cands[i].bytes > cands[j].bytes
		}
		return cands[i].topo < cands[j].topo
	})
	a.Candidates = len(cands)
	if len(cands) > topK {
		cands = cands[:topK]
	}

	for _, c := range cands {
		p := Peak{Topo: c.topo, Bytes: c.bytes}
		for _, o := range t.Objects {
			if o.PoolSegment {
				continue // consistent with LiveBytesTimelineTo
			}
			if liveAt(t, o, c.topo) {
				p.Live = append(p.Live, o.ID)
				a.onPeak[o.ID] = true
			}
		}
		sort.SliceStable(p.Live, func(i, j int) bool {
			oi, oj := t.Object(p.Live[i]), t.Object(p.Live[j])
			if oi.Size != oj.Size {
				return oi.Size > oj.Size
			}
			return oi.ID < oj.ID
		})
		a.Peaks = append(a.Peaks, p)
	}
	return a
}

// liveAt reports whether object o is live at topological timestamp ts,
// consistent with Trace.LiveBytesTimelineTo (alloc inclusive, free exclusive).
func liveAt(t *trace.Trace, o *trace.Object, ts uint64) bool {
	if t.API(o.AllocAPI).Topo > ts {
		return false
	}
	if o.Freed() && t.API(uint64(o.FreeAPI)).Topo <= ts {
		return false
	}
	return true
}

// OnPeak reports whether the object is live at any of the mined peaks.
func (a *Analysis) OnPeak(id trace.ObjectID) bool { return a.onPeak[id] }
