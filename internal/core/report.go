package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"drgpum/internal/advisor"
	"drgpum/internal/callpath"
	"drgpum/internal/costmodel"
	"drgpum/internal/depgraph"
	"drgpum/internal/gpu"
	"drgpum/internal/intraobj"
	"drgpum/internal/memcheck"
	"drgpum/internal/obs"
	"drgpum/internal/pattern"
	"drgpum/internal/peak"
	"drgpum/internal/trace"
)

// Report is the profiler's final output: the annotated trace, the
// dependency graph, the memory-peak analysis, and the ranked findings.
type Report struct {
	// Device is the profiled device name.
	Device string
	// Trace is the object-level memory access trace with topological
	// timestamps assigned.
	Trace *trace.Trace
	// Graph is the GPU API dependency graph.
	Graph *depgraph.Graph
	// Peaks is the memory-peak analysis.
	Peaks *peak.Analysis
	// Findings are the detected inefficiencies, most severe first.
	Findings []pattern.Finding
	// MemStats is the device allocator snapshot at Finish time.
	MemStats gpu.AllocStats
	// Elapsed is the simulated execution time in cycles.
	Elapsed uint64
	// ModeStats reports the adaptive intra-object map-mode decisions.
	ModeStats intraobj.ModeStats
	// Recorder gives access to intra-object histograms (nil at PatchAPI).
	Recorder *intraobj.Recorder
	// WhatIf is the aggregate what-if estimate: the data-object peak the
	// program would have if every suggestion in Findings were applied.
	// (Per-finding ranked advice lives behind the Advice method.)
	WhatIf advisor.Estimate
	// CostModel is the memory-hierarchy cost model spec the run used, or
	// nil when the model was disabled (Config.CostModel.Disabled). When
	// set, findings carry ModeledCycles/CyclesSaved and severity ranks by
	// cycles saved.
	CostModel *costmodel.Spec
	// Memcheck is the memory-safety report (nil unless Config.Memcheck).
	Memcheck *memcheck.Report
	// Obs is the self-observability snapshot taken when the report was
	// assembled (nil unless Config.Obs). Render with Stats or Export
	// (FormatStats); wall-clock totals live only here, never in the
	// byte-identity report text.
	Obs *obs.Snapshot
	// Heat is the temporal object×epoch heat map a streaming run
	// accumulated (nil unless Config.Streaming.Enabled). Render with
	// RenderHeatMap or view the GUI export's heat track. Deliberately
	// outside Render and MarshalJSON, which stay byte-identical between
	// streaming and offline runs.
	Heat *HeatMap
}

// HasPattern reports whether any finding matches the pattern.
func (r *Report) HasPattern(p pattern.Pattern) bool {
	for i := range r.Findings {
		if r.Findings[i].Pattern == p {
			return true
		}
	}
	return false
}

// PatternSet returns the distinct detected patterns in table order — one
// row of the paper's Table 1.
func (r *Report) PatternSet() []pattern.Pattern {
	seen := make(map[pattern.Pattern]bool)
	for i := range r.Findings {
		seen[r.Findings[i].Pattern] = true
	}
	var out []pattern.Pattern
	for _, p := range pattern.All() {
		if seen[p] {
			out = append(out, p)
		}
	}
	return out
}

// FindingsForObject returns the findings whose object carries the given
// label, in severity order.
func (r *Report) FindingsForObject(label string) []pattern.Finding {
	var out []pattern.Finding
	for i := range r.Findings {
		if r.Trace.Object(r.Findings[i].Object).Label == label {
			out = append(out, r.Findings[i])
		}
	}
	return out
}

// PatternsForObject returns the distinct patterns detected on the labelled
// object — one cell group of the paper's Table 4.
func (r *Report) PatternsForObject(label string) []pattern.Pattern {
	seen := make(map[pattern.Pattern]bool)
	for _, f := range r.FindingsForObject(label) {
		seen[f.Pattern] = true
	}
	var out []pattern.Pattern
	for _, p := range pattern.All() {
		if seen[p] {
			out = append(out, p)
		}
	}
	return out
}

// Advice is one ranked, self-contained optimization recommendation — the
// unified shape every finding vocabulary (profiler findings, static-advisor
// findings, memcheck issues) maps into for machine consumption. Pattern IDs
// and severity strings are shared across the whole toolchain (drgpum -json,
// drgpum-staticadv -json, drgpum-lint).
type Advice struct {
	// PatternID is the stable kebab-case pattern identifier
	// (pattern.Pattern.ID, e.g. "uncoalesced-access").
	PatternID string
	// Pattern is the human-readable pattern name.
	Pattern string
	// Object is the affected data object's display name.
	Object string
	// AllocSite is the first program frame of the object's allocation
	// call path: the program's call into the GPU API or the pool in front
	// of it (empty when unresolvable).
	AllocSite string
	// Kernel names the kernel evidencing an intra-object or cost-model
	// pattern (empty for lifetime patterns).
	Kernel string
	// BytesSaved is the byte benefit of acting on the advice: the marginal
	// peak reduction when the object shapes a peak, else the wasted bytes.
	BytesSaved uint64
	// ModeledCycles is the cost model's estimate of what the object's
	// kernel traffic costs today (0 when the model is disabled).
	ModeledCycles uint64
	// CyclesSaved is the cost model's estimate of cycles recovered by the
	// fix (0 when the model is disabled); advice is ranked by it.
	CyclesSaved uint64
	// Severity buckets the advice into the shared info/warning/error scale.
	Severity pattern.SeverityClass
	// Confidence in (0, 1]: how certain the profiler is that the fix
	// helps, by pattern class (trace-exact lifetime facts rank above
	// sampled intra-object and modeled cost estimates).
	Confidence float64
	// Suggestion is the human-facing guidance text.
	Suggestion string
}

// Advice returns every finding as a ranked recommendation, most valuable
// first (the findings' severity order). This is the first-class advice
// surface; the rendered report and the JSON export are views over the same
// data.
func (r *Report) Advice() []Advice {
	out := make([]Advice, 0, len(r.Findings))
	for i := range r.Findings {
		f := &r.Findings[i]
		o := r.Trace.Object(f.Object)
		a := Advice{
			PatternID:     f.Pattern.ID(),
			Pattern:       f.Pattern.String(),
			Object:        o.DisplayName(),
			Kernel:        f.AtKernel,
			BytesSaved:    f.WastedBytes,
			ModeledCycles: f.ModeledCycles,
			CyclesSaved:   f.CyclesSaved,
			Severity:      classify(f),
			Confidence:    confidence(f.Pattern),
			Suggestion:    f.Suggestion,
		}
		if f.PeakSavingsBytes > 0 {
			a.BytesSaved = f.PeakSavingsBytes
		}
		if leaf, ok := callpath.Leaf(r.Trace.Unwinder, o.AllocPath); ok {
			a.AllocSite = leaf.String()
		}
		out = append(out, a)
	}
	return out
}

// Render writes a human-readable report. With verbose set, call paths and
// per-finding suggestions are included (the GUI detail-pane content).
func (r *Report) Render(w io.Writer, verbose bool) {
	fmt.Fprintf(w, "DrGPUM report — device %s\n", r.Device)
	fmt.Fprintf(w, "  GPU APIs: %d   data objects: %d   simulated cycles: %d\n",
		len(r.Trace.APIs), len(r.Trace.Objects), r.Elapsed)
	fmt.Fprintf(w, "  peak device memory: %d bytes (capacity %d)\n",
		r.MemStats.Peak, r.MemStats.Capacity)
	st := trace.ComputeStats(r.Trace)
	fmt.Fprintf(w, "  API mix: %d alloc / %d free / %d copy (%d B) / %d set (%d B) / %d kernel",
		st.ByKind[gpu.APIMalloc], st.ByKind[gpu.APIFree],
		st.ByKind[gpu.APIMemcpy], st.CopyBytes,
		st.ByKind[gpu.APIMemset], st.SetBytes,
		st.ByKind[gpu.APIKernel])
	if st.PoolOps > 0 {
		fmt.Fprintf(w, " (%d pool ops)", st.PoolOps)
	}
	fmt.Fprintf(w, "; %d stream(s)\n", st.Streams)
	if st.LeakedObjects > 0 {
		fmt.Fprintf(w, "  unfreed at exit: %d object(s), %d bytes\n", st.LeakedObjects, st.LeakedBytes)
	}
	fmt.Fprintf(w, "  %s\n", r.Graph)

	for i, p := range r.Peaks.Peaks {
		fmt.Fprintf(w, "  memory peak #%d: %d bytes at T=%d, %d object(s) live\n",
			i+1, p.Bytes, p.Topo, len(p.Live))
		if verbose {
			for _, id := range p.Live {
				o := r.Trace.Object(id)
				fmt.Fprintf(w, "      %-24s %10d bytes  %v\n", o.DisplayName(), o.Size, o.Range())
			}
		}
	}

	if r.WhatIf.EstimatedPeak < r.WhatIf.OriginalPeak {
		fmt.Fprintf(w, "  applying all suggestions would cut the data-object peak from %d to %d bytes (-%.0f%%)\n",
			r.WhatIf.OriginalPeak, r.WhatIf.EstimatedPeak, r.WhatIf.ReductionPct)
	}
	if r.CostModel != nil {
		var saved uint64
		for i := range r.Findings {
			saved += r.Findings[i].CyclesSaved
		}
		fmt.Fprintf(w, "  cost model: advice ranked by modeled cycles; fixes recover an estimated %d cycle(s)\n", saved)
	}
	fmt.Fprintf(w, "  findings: %d\n", len(r.Findings))
	var line []byte // each finding's suggestion line in turn
	for i := range r.Findings {
		f := &r.Findings[i]
		o := r.Trace.Object(f.Object)
		peakMark := ""
		if f.OnPeak {
			peakMark = "  [on peak]"
		}
		fmt.Fprintf(w, "\n  [%d] %s — %s (%d bytes)%s\n", i+1, f.Pattern, o.DisplayName(), o.Size, peakMark)
		if f.Distance > 0 {
			fmt.Fprintf(w, "      inefficiency distance: %d\n", f.Distance)
		}
		if f.PeakSavingsBytes > 0 {
			fmt.Fprintf(w, "      fixing this alone saves an estimated %d bytes of peak\n", f.PeakSavingsBytes)
		}
		if f.Pattern == pattern.Overallocation {
			fmt.Fprintf(w, "      accessed elements: %.3g%%   fragmentation: %.3g%%\n",
				f.AccessedPct, f.FragmentationPct)
		}
		if f.Pattern == pattern.NonUniformAccessFrequency {
			fmt.Fprintf(w, "      access-frequency variation: %.3g%% at kernel %s\n",
				f.VariationPct, f.AtKernel)
		}
		if f.Pattern == pattern.UncoalescedAccess {
			c := r.Trace.Object(f.Object).Cost
			fmt.Fprintf(w, "      memory transactions: %d (coalesced ideal %d) at kernel %s\n",
				c.Transactions, c.IdealTransactions, f.AtKernel)
		}
		if f.CyclesSaved > 0 {
			fmt.Fprintf(w, "      modeled traffic cost: %d cycle(s); fixing saves ~%d cycle(s)\n",
				f.ModeledCycles, f.CyclesSaved)
		}
		line = appendSuggestion(line[:0], f.Suggestion)
		// Like every Fprintf here, a failed write is the writer's to
		// report.
		_, _ = w.Write(line)
		if verbose {
			fmt.Fprintf(w, "      allocated at:\n%s\n",
				indent(callpath.Format(r.Trace.Unwinder, o.AllocPath), "        "))
		}
	}

	if r.Memcheck != nil {
		fmt.Fprintf(w, "\n")
		// Render only fails when the writer fails, in which case every
		// Fprintf above already swallowed the same failure.
		_ = r.Memcheck.Render(w)
	}
}

// String renders the non-verbose report.
func (r *Report) String() string {
	var b strings.Builder
	r.Render(&b, false)
	return b.String()
}

// appendSuggestion appends a finding's suggestion line of the text
// report to dst: the label, the suggestion soft-wrapped at 72 bytes
// under a hanging indent, and a newline.
func appendSuggestion(dst []byte, suggestion string) []byte {
	dst = append(dst, "      suggestion: "...)
	dst = appendWrapped(dst, suggestion, 72, "                  ")
	return append(dst, '\n')
}

// appendWrapped appends s to dst soft-wrapped at width bytes: its
// words, split as strings.Fields splits them, joined by single spaces,
// with a newline and contPrefix in place of the space before a word that
// would run past width. An s with no words is appended as is.
func appendWrapped(dst []byte, s string, width int, contPrefix string) []byte {
	start, end := nextField(s, 0)
	if start == end {
		return append(dst, s...)
	}
	dst = append(dst, s[start:end]...)
	n := end - start // bytes on the current line
	for start, end = nextField(s, end); start < end; start, end = nextField(s, end) {
		if n+1+end-start > width {
			dst = append(dst, '\n')
			dst = append(dst, contPrefix...)
			n = 0
		} else {
			dst = append(dst, ' ')
			n++
		}
		dst = append(dst, s[start:end]...)
		n += end - start
	}
	return dst
}

// nextField returns the bounds of the first word of s at or after byte
// i, where words are the runs of non-space runes (unicode.IsSpace) that
// strings.Fields returns. start == end == len(s) when no word is left.
func nextField(s string, i int) (start, end int) {
	for i < len(s) {
		r, n := utf8.DecodeRuneInString(s[i:])
		if !unicode.IsSpace(r) {
			break
		}
		i += n
	}
	start = i
	for i < len(s) {
		r, n := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) {
			break
		}
		i += n
	}
	return start, i
}

// indent prefixes every line of s.
func indent(s, prefix string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n")
}

// jsonFinding is the serialized form of a finding. The "id" and "severity"
// keys are the unified vocabulary every tool's -json output shares
// (drgpum, drgpum-staticadv, drgpum-lint): kebab-case pattern IDs and the
// info/warning/error scale.
type jsonFinding struct {
	ID               string   `json:"id"`
	Severity         string   `json:"severity"`
	Pattern          string   `json:"pattern"`
	Abbrev           string   `json:"abbrev"`
	Object           string   `json:"object"`
	ObjectBytes      uint64   `json:"object_bytes"`
	Partner          string   `json:"partner,omitempty"`
	APIs             []string `json:"apis,omitempty"`
	Distance         uint64   `json:"distance,omitempty"`
	WastedBytes      uint64   `json:"wasted_bytes,omitempty"`
	AccessedPct      float64  `json:"accessed_pct,omitempty"`
	FragmentationPct float64  `json:"fragmentation_pct,omitempty"`
	VariationPct     float64  `json:"variation_pct,omitempty"`
	Kernel           string   `json:"kernel,omitempty"`
	PeakSavings      uint64   `json:"peak_savings_bytes,omitempty"`
	ModeledCycles    uint64   `json:"modeled_cycles,omitempty"`
	CyclesSaved      uint64   `json:"cycles_saved,omitempty"`
	Confidence       float64  `json:"confidence"`
	OnPeak           bool     `json:"on_peak"`
	Suggestion       string   `json:"suggestion"`
	AllocSite        string   `json:"alloc_site,omitempty"`
}

// jsonReport is the serialized report envelope.
type jsonReport struct {
	Device      string        `json:"device"`
	APIs        int           `json:"gpu_apis"`
	Objects     int           `json:"data_objects"`
	PeakBytes   uint64        `json:"peak_bytes"`
	Cycles      uint64        `json:"simulated_cycles"`
	PeakTops    []uint64      `json:"top_peak_bytes"`
	Findings    []jsonFinding `json:"findings"`
	DeviceMaps  int           `json:"device_map_kernels,omitempty"`
	HostMaps    int           `json:"host_map_kernels,omitempty"`
	GraphString string        `json:"dependency_graph"`
	// Advice is the what-if estimate of applying every suggestion.
	AdvicePeak         uint64  `json:"advised_peak_bytes"`
	AdviceReductionPct float64 `json:"advised_reduction_pct"`
	// CostModel summarizes the memory-hierarchy cost model when enabled.
	CostModel *jsonCostModel `json:"cost_model,omitempty"`
	// Memcheck summarizes the memory-safety report when one was taken.
	Memcheck *jsonMemcheck `json:"memcheck,omitempty"`
	// Obs is the self-observability snapshot with wall-clock fields
	// zeroed, so report JSON stays byte-identical across runs.
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// jsonCostModel is the serialized cost-model summary.
type jsonCostModel struct {
	SectorBytes   uint64 `json:"sector_bytes"`
	LineBytes     uint64 `json:"line_bytes"`
	DRAMCycles    uint64 `json:"dram_cycles"`
	TLBReachBytes uint64 `json:"tlb_reach_bytes"`
	ModeledCycles uint64 `json:"modeled_cycles"`
	CyclesSaved   uint64 `json:"cycles_saved"`
}

// jsonMemcheck is the serialized memory-safety summary.
type jsonMemcheck struct {
	Issues       int                 `json:"issues"`
	LeakBytes    uint64              `json:"leak_bytes"`
	ReadsChecked uint64              `json:"reads_checked"`
	IssueList    []jsonMemcheckIssue `json:"issue_list,omitempty"`
}

// jsonMemcheckIssue serializes one memory-safety issue with the unified
// "id"/"severity" keys every tool's JSON output shares.
type jsonMemcheckIssue struct {
	ID       string `json:"id"`
	Severity string `json:"severity"`
	Kernel   string `json:"kernel,omitempty"`
	Object   string `json:"object,omitempty"`
	Count    uint64 `json:"count"`
}

// MarshalJSON serializes the report for machine consumption.
func (r *Report) MarshalJSON() ([]byte, error) {
	jr := jsonReport{
		Device:             r.Device,
		APIs:               len(r.Trace.APIs),
		Objects:            len(r.Trace.Objects),
		PeakBytes:          r.MemStats.Peak,
		Cycles:             r.Elapsed,
		DeviceMaps:         r.ModeStats.DeviceKernels,
		HostMaps:           r.ModeStats.HostKernels,
		GraphString:        r.Graph.String(),
		AdvicePeak:         r.WhatIf.EstimatedPeak,
		AdviceReductionPct: r.WhatIf.ReductionPct,
	}
	if r.CostModel != nil {
		cm := &jsonCostModel{
			SectorBytes:   r.CostModel.SectorBytes,
			LineBytes:     r.CostModel.LineBytes,
			DRAMCycles:    r.CostModel.DRAMCycles,
			TLBReachBytes: r.CostModel.TLBReach(),
		}
		for i := range r.Findings {
			cm.ModeledCycles += r.Findings[i].ModeledCycles
			cm.CyclesSaved += r.Findings[i].CyclesSaved
		}
		jr.CostModel = cm
	}
	if r.Memcheck != nil {
		jm := &jsonMemcheck{
			Issues:       len(r.Memcheck.Issues),
			LeakBytes:    r.Memcheck.LeakBytes,
			ReadsChecked: r.Memcheck.AccessesChecked,
		}
		for _, is := range r.Memcheck.Issues {
			ji := jsonMemcheckIssue{
				ID:       is.Class.ID(),
				Severity: is.Class.Severity().String(),
				Kernel:   is.Kernel,
				Count:    is.Count,
			}
			if is.Object.Seq != 0 {
				ji.Object = is.Object.Label
			}
			jm.IssueList = append(jm.IssueList, ji)
		}
		jr.Memcheck = jm
	}
	if r.Obs != nil {
		zw := r.Obs.ZeroWall()
		jr.Obs = &zw
	}
	for _, p := range r.Peaks.Peaks {
		jr.PeakTops = append(jr.PeakTops, p.Bytes)
	}
	for i := range r.Findings {
		f := &r.Findings[i]
		o := r.Trace.Object(f.Object)
		jf := jsonFinding{
			ID:               f.Pattern.ID(),
			Severity:         classify(f).String(),
			Pattern:          f.Pattern.String(),
			Abbrev:           f.Pattern.Abbrev(),
			Object:           o.DisplayName(),
			ObjectBytes:      o.Size,
			Distance:         f.Distance,
			WastedBytes:      f.WastedBytes,
			AccessedPct:      f.AccessedPct,
			FragmentationPct: f.FragmentationPct,
			VariationPct:     f.VariationPct,
			Kernel:           f.AtKernel,
			PeakSavings:      f.PeakSavingsBytes,
			ModeledCycles:    f.ModeledCycles,
			CyclesSaved:      f.CyclesSaved,
			Confidence:       confidence(f.Pattern),
			OnPeak:           f.OnPeak,
			Suggestion:       f.Suggestion,
		}
		if f.HasPartner {
			jf.Partner = r.Trace.Object(f.Partner).DisplayName()
		}
		for _, api := range f.APIs {
			jf.APIs = append(jf.APIs, r.Trace.API(api).Label())
		}
		if leaf, ok := callpath.Leaf(r.Trace.Unwinder, o.AllocPath); ok {
			jf.AllocSite = leaf.String()
		}
		jr.Findings = append(jr.Findings, jf)
	}
	return json.MarshalIndent(jr, "", "  ")
}

// SortFindingsByObject reorders findings by (object, pattern) — the layout
// used by table generators. It returns the report for chaining.
func (r *Report) SortFindingsByObject() *Report {
	sort.SliceStable(r.Findings, func(i, j int) bool {
		if r.Findings[i].Object != r.Findings[j].Object {
			return r.Findings[i].Object < r.Findings[j].Object
		}
		return r.Findings[i].Pattern < r.Findings[j].Pattern
	})
	return r
}
