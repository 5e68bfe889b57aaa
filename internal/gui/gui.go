// Package gui exports profiles in the Chrome/Perfetto trace-event JSON
// format, reproducing DrGPUM's web GUI (paper §4 and Figure 7).
//
// The export mirrors the paper's three panes:
//
//   - a per-stream timeline of GPU APIs in topological order (top pane),
//   - lifetime tracks of the data objects involved in the top memory
//     peaks, with the APIs that access them (middle pane), and
//   - per-API detail arguments: call path, inefficiency patterns,
//     inefficiency distances, and optimization suggestions (bottom pane).
//
// A GPU-memory counter track is added so Perfetto draws the memory curve
// whose peaks the analyzer mined. Load the emitted file at
// https://ui.perfetto.dev via "Open trace file" (the paper's liveness.json
// workflow).
package gui

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"drgpum/internal/callpath"
	"drgpum/internal/core"
	"drgpum/internal/obs"
	"drgpum/internal/pattern"
	"drgpum/internal/trace"
)

// pids group tracks into Perfetto "processes".
const (
	pidAPIs    = 1
	pidObjects = 2
	pidMemory  = 3
	pidObs     = 4
	pidHeat    = 5
)

// init registers this package's renderers with the unified exporter
// (core.Report.Export); the public drgpum package imports gui, so both
// formats are always available to external callers.
func init() {
	core.RegisterExporter(core.FormatGUI, Export)
	core.RegisterExporter(core.FormatHTML, ExportHTML)
}

// event is one Chrome trace event. Only the fields the viewer needs are
// emitted.
type event struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    uint64         `json:"ts"`
	Dur   uint64         `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Cat   string         `json:"cat,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// document is the trace-file envelope.
type document struct {
	TraceEvents     []event           `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	Metadata        map[string]string `json:"metadata"`
}

// Export writes the report as a Perfetto-loadable JSON trace. Timestamps
// use topological order (one tick per level), which is the paper's GUI
// x-axis; durations are fixed at one tick so adjacent APIs tile the lane.
func Export(rep *core.Report, w io.Writer) error {
	doc := document{
		DisplayTimeUnit: "ms",
		Metadata: map[string]string{
			"tool":   "DrGPUM-Go",
			"device": rep.Device,
		},
	}

	// Findings grouped by object and by evidencing API for args rendering.
	byObject := make(map[trace.ObjectID][]*pattern.Finding)
	byAPI := make(map[uint64][]*pattern.Finding)
	for i := range rep.Findings {
		f := &rep.Findings[i]
		byObject[f.Object] = append(byObject[f.Object], f)
		for _, api := range f.APIs {
			byAPI[api] = append(byAPI[api], f)
		}
	}

	// Name the track groups.
	doc.TraceEvents = append(doc.TraceEvents,
		metaEvent(pidAPIs, "GPU APIs (topological order)"),
		metaEvent(pidObjects, "Data objects at top memory peaks"),
		metaEvent(pidMemory, "GPU memory"),
	)

	// Top pane: one lane per stream, one tile per API.
	streams := map[int]bool{}
	for _, a := range rep.Trace.APIs {
		streams[a.Rec.Stream] = true
		args := map[string]any{
			"api":       a.Rec.Name,
			"kind":      a.Rec.Kind.String(),
			"topo":      a.Topo,
			"call_path": callpath.Format(rep.Trace.Unwinder, a.Path),
		}
		if a.Rec.Size > 0 {
			args["bytes"] = a.Rec.Size
		}
		if fs := byAPI[a.Rec.Index]; len(fs) > 0 {
			args["patterns"] = patternLines(rep, fs)
		}
		doc.TraceEvents = append(doc.TraceEvents, event{
			Name: a.Label(), Phase: "X",
			Ts: a.Topo, Dur: 1,
			Pid: pidAPIs, Tid: a.Rec.Stream,
			Cat:  a.Rec.Kind.String(),
			Args: args,
		})
	}
	streamIDs := make([]int, 0, len(streams))
	for s := range streams {
		streamIDs = append(streamIDs, s)
	}
	sort.Ints(streamIDs)
	for _, s := range streamIDs {
		doc.TraceEvents = append(doc.TraceEvents, threadName(pidAPIs, s, fmt.Sprintf("stream %d", s)))
	}

	// Middle pane: async lifetime spans for objects live at the top peaks,
	// plus instant markers for each API access to them.
	peakObjects := map[trace.ObjectID]bool{}
	for _, p := range rep.Peaks.Peaks {
		for _, id := range p.Live {
			peakObjects[id] = true
		}
	}
	ids := make([]trace.ObjectID, 0, len(peakObjects))
	for id := range peakObjects {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	maxTopo := uint64(0)
	for _, a := range rep.Trace.APIs {
		if a.Topo > maxTopo {
			maxTopo = a.Topo
		}
	}

	for lane, id := range ids {
		o := rep.Trace.Object(id)
		start := rep.Trace.API(o.AllocAPI).Topo
		end := maxTopo + 1
		if o.Freed() {
			end = rep.Trace.API(uint64(o.FreeAPI)).Topo
		}
		args := map[string]any{
			"bytes":      o.Size,
			"range":      o.Range().String(),
			"alloc_site": callpath.Format(rep.Trace.Unwinder, o.AllocPath),
		}
		if fs := byObject[id]; len(fs) > 0 {
			args["patterns"] = patternLines(rep, fs)
		}
		doc.TraceEvents = append(doc.TraceEvents, event{
			Name: o.DisplayName(), Phase: "X",
			Ts: start, Dur: end - start,
			Pid: pidObjects, Tid: lane,
			Cat:  "object",
			Args: args,
		})
		doc.TraceEvents = append(doc.TraceEvents, threadName(pidObjects, lane, o.DisplayName()))
		for _, ev := range o.Accesses {
			a := rep.Trace.API(ev.API)
			doc.TraceEvents = append(doc.TraceEvents, event{
				Name: a.Label(), Phase: "i",
				Ts: a.Topo, Pid: pidObjects, Tid: lane,
				Cat: "access",
				Args: map[string]any{
					"read":  ev.Read,
					"write": ev.Write,
				},
			})
		}
	}

	// Memory counter.
	for ts, bytes := range rep.Peaks.Timeline {
		doc.TraceEvents = append(doc.TraceEvents, event{
			Name: "device bytes", Phase: "C",
			Ts: uint64(ts), Pid: pidMemory, Tid: 0,
			Args: map[string]any{"bytes": bytes},
		})
	}

	appendObsTrack(&doc, rep.Obs)
	appendHeatTrack(&doc, rep)

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// appendObsTrack adds the profiler's self-observability as its own process
// next to the simulated GPU timeline: one flame lane of phase spans plus a
// counter summary. Like the GPU panes, the x-axis is synthetic (spans are
// laid out by call count, children packed inside their parent), so the
// track contains no wall-clock bytes and the export stays byte-identical
// across runs — self-time belongs to obs.Snapshot.WriteTrace.
func appendObsTrack(doc *document, snap *obs.Snapshot) {
	if snap == nil {
		return
	}
	doc.TraceEvents = append(doc.TraceEvents,
		metaEvent(pidObs, "DrGPUM self-observability"),
		threadName(pidObs, 0, "phases"),
		threadName(pidObs, 1, "counters"),
	)
	appendObsSpans(doc, snap.Spans, 0)
	counters := map[string]any{}
	for _, c := range snap.Counters {
		if c.Value != 0 {
			counters[c.Name] = c.Value
		}
	}
	doc.TraceEvents = append(doc.TraceEvents, event{
		Name: "counters", Phase: "i",
		Ts: 0, Pid: pidObs, Tid: 1,
		Cat:  "obs",
		Args: counters,
	})
}

// appendObsSpans lays out sibling phase spans sequentially from offset;
// a span's width is its call count (at least 1), widened to hold its
// children, which nest inside it on the same lane.
func appendObsSpans(doc *document, ns []obs.SpanNode, offset uint64) {
	for _, n := range ns {
		w := obsSpanWidth(n)
		doc.TraceEvents = append(doc.TraceEvents, event{
			Name: n.Name, Phase: "X",
			Ts: offset, Dur: w,
			Pid: pidObs, Tid: 0,
			Cat:  "obs",
			Args: map[string]any{"calls": n.Count},
		})
		appendObsSpans(doc, n.Children, offset)
		offset += w
	}
}

// obsSpanWidth is a span's tile width: max(1, calls, sum of children).
func obsSpanWidth(n obs.SpanNode) uint64 {
	w := n.Count
	if w < 1 {
		w = 1
	}
	var kids uint64
	for _, c := range n.Children {
		kids += obsSpanWidth(c)
	}
	if kids > w {
		w = kids
	}
	return w
}

// heatTrackObjects bounds how many object lanes the heat track shows.
const heatTrackObjects = 16

// appendHeatTrack adds the temporal heat map of a streaming run as a
// counter process next to the obs track: one counter per hot object, sampled
// once per kernel-epoch at the epoch's first timestamp, so Perfetto draws
// each object's access intensity over time under the API panes. Offline
// reports carry no heat map and the track is omitted entirely.
func appendHeatTrack(doc *document, rep *core.Report) {
	h := rep.Heat
	if h == nil || len(h.Epochs) == 0 {
		return
	}

	// Hottest objects across all epochs (total touches desc, ID asc).
	totals := make(map[trace.ObjectID]uint64)
	for _, e := range h.Epochs {
		for _, c := range e.Cells {
			totals[c.Object] += c.Touches
		}
	}
	ids := make([]trace.ObjectID, 0, len(totals))
	for id := range totals {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if totals[ids[i]] != totals[ids[j]] {
			return totals[ids[i]] > totals[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if len(ids) > heatTrackObjects {
		ids = ids[:heatTrackObjects]
	}

	doc.TraceEvents = append(doc.TraceEvents,
		metaEvent(pidHeat, fmt.Sprintf("Temporal heat map (%d-kernel epochs)", h.WindowKernels)))

	for _, id := range ids {
		name := rep.Trace.Object(id).DisplayName() + " touches"
		for _, e := range h.Epochs {
			var touches uint64
			for _, c := range e.Cells {
				if c.Object == id {
					touches = c.Touches
					break
				}
				if c.Object > id {
					break // cells are sorted by object
				}
			}
			doc.TraceEvents = append(doc.TraceEvents, event{
				Name: name, Phase: "C",
				Ts: rep.Trace.API(e.FirstAPI).Topo, Pid: pidHeat, Tid: 0,
				Args: map[string]any{"touches": touches},
			})
		}
	}
}

// patternLines renders the bottom-pane detail text for a set of findings.
func patternLines(rep *core.Report, fs []*pattern.Finding) []string {
	out := make([]string, 0, len(fs))
	for _, f := range fs {
		line := fmt.Sprintf("%s (%s)", f.Pattern, rep.Trace.Object(f.Object).DisplayName())
		if f.Distance > 0 {
			line += fmt.Sprintf(" — inefficiency distance %d", f.Distance)
		}
		line += ": " + f.Suggestion
		out = append(out, line)
	}
	return out
}

// metaEvent names a Perfetto process.
func metaEvent(pid int, name string) event {
	return event{
		Name: "process_name", Phase: "M", Pid: pid, Tid: 0,
		Args: map[string]any{"name": name},
	}
}

// threadName names a Perfetto thread lane.
func threadName(pid, tid int, name string) event {
	return event{
		Name: "thread_name", Phase: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name},
	}
}
