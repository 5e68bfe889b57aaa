package gui

import (
	"fmt"
	"html/template"
	"io"
	"strings"

	"drgpum/internal/callpath"
	"drgpum/internal/core"
	"drgpum/internal/pattern"
)

// ExportHTML writes the report as one self-contained HTML page: run
// statistics, an inline-SVG device-memory timeline with the mined peaks
// marked, and the ranked findings with their metrics, suggestions and
// allocation call paths. No external assets — the file works offline and
// can be attached to a bug report, complementing the Perfetto export for
// interactive timeline digging.
func ExportHTML(rep *core.Report, w io.Writer) error {
	data := buildHTMLData(rep)
	return htmlTemplate.Execute(w, data)
}

// htmlFinding is one rendered finding row.
type htmlFinding struct {
	Rank       int
	Pattern    string
	Abbrev     string
	Object     string
	Bytes      uint64
	Distance   uint64
	Metrics    string
	OnPeak     bool
	Suggestion string
	AllocPath  string
	// Histogram holds normalized per-bucket bar heights (0..1) of the
	// object's cumulative access frequencies, for NUAF findings (the
	// paper plots the frequency hashmap as a histogram, §5.2).
	Histogram []histBar
}

// histBar is one histogram bar in SVG coordinates.
type histBar struct {
	X, Y, W, H float64
	Title      string
}

// htmlPeak is one rendered memory peak.
type htmlPeak struct {
	Rank  int
	Topo  uint64
	Bytes uint64
	Live  []string
}

// htmlData is the template input.
type htmlData struct {
	Device    string
	APIs      int
	Objects   int
	PeakBytes uint64
	Capacity  uint64
	Cycles    uint64
	Graph     string

	ChartPath     string
	ChartWidth    int
	ChartHeight   int
	PeakMarks     []chartMark
	ChartMaxBytes uint64
	ChartMaxTopo  uint64

	Peaks    []htmlPeak
	Findings []htmlFinding

	// Advice renders the what-if estimate when it saves anything.
	AdviceOriginal  uint64
	AdviceEstimated uint64
	AdvicePct       float64
	HasAdvice       bool
}

// chartMark is a highlighted point on the timeline.
type chartMark struct {
	X, Y  float64
	Label string
}

const (
	chartW   = 760
	chartH   = 180
	chartPad = 10
)

// buildHTMLData flattens the report for templating.
func buildHTMLData(rep *core.Report) *htmlData {
	d := &htmlData{
		Device:      rep.Device,
		APIs:        len(rep.Trace.APIs),
		Objects:     len(rep.Trace.Objects),
		PeakBytes:   rep.Peaks.PeakBytes,
		Capacity:    rep.MemStats.Capacity,
		Cycles:      rep.Elapsed,
		Graph:       rep.Graph.String(),
		ChartWidth:  chartW,
		ChartHeight: chartH,
	}
	if rep.WhatIf.EstimatedPeak < rep.WhatIf.OriginalPeak {
		d.HasAdvice = true
		d.AdviceOriginal = rep.WhatIf.OriginalPeak
		d.AdviceEstimated = rep.WhatIf.EstimatedPeak
		d.AdvicePct = rep.WhatIf.ReductionPct
	}

	// Timeline polyline: topological time on X, live bytes on Y.
	tl := rep.Peaks.Timeline
	var maxBytes uint64
	for _, v := range tl {
		if v > maxBytes {
			maxBytes = v
		}
	}
	d.ChartMaxBytes = maxBytes
	if len(tl) > 1 {
		d.ChartMaxTopo = uint64(len(tl) - 1)
	}
	var b strings.Builder
	for i, v := range tl {
		x, y := chartPoint(i, v, len(tl), maxBytes)
		if i == 0 {
			fmt.Fprintf(&b, "M%.1f,%.1f", x, y)
		} else {
			// Step chart: memory changes discretely per API.
			fmt.Fprintf(&b, " H%.1f V%.1f", x, y)
		}
	}
	d.ChartPath = b.String()
	for i, p := range rep.Peaks.Peaks {
		x, y := chartPoint(int(p.Topo), p.Bytes, len(tl), maxBytes)
		d.PeakMarks = append(d.PeakMarks, chartMark{
			X: x, Y: y,
			Label: fmt.Sprintf("peak %d: %d B @ T=%d", i+1, p.Bytes, p.Topo),
		})
	}

	for i, p := range rep.Peaks.Peaks {
		hp := htmlPeak{Rank: i + 1, Topo: p.Topo, Bytes: p.Bytes}
		for _, id := range p.Live {
			o := rep.Trace.Object(id)
			hp.Live = append(hp.Live, fmt.Sprintf("%s (%d B)", o.DisplayName(), o.Size))
		}
		d.Peaks = append(d.Peaks, hp)
	}

	for i := range rep.Findings {
		f := &rep.Findings[i]
		o := rep.Trace.Object(f.Object)
		hf := htmlFinding{
			Rank:       i + 1,
			Pattern:    f.Pattern.String(),
			Abbrev:     f.Pattern.Abbrev(),
			Object:     o.DisplayName(),
			Bytes:      o.Size,
			Distance:   f.Distance,
			OnPeak:     f.OnPeak,
			Suggestion: f.Suggestion,
			AllocPath:  callpath.Format(rep.Trace.Unwinder, o.AllocPath),
		}
		switch f.Pattern {
		case pattern.Overallocation:
			hf.Metrics = fmt.Sprintf("accessed %.3g%%, fragmentation %.3g%%",
				f.AccessedPct, f.FragmentationPct)
		case pattern.NonUniformAccessFrequency:
			hf.Metrics = fmt.Sprintf("variation %.3g%% at %s", f.VariationPct, f.AtKernel)
			hf.Histogram = nuafHistogram(rep, f)
		case pattern.StructuredAccess:
			hf.Metrics = fmt.Sprintf("at %s", f.AtKernel)
		}
		d.Findings = append(d.Findings, hf)
	}
	return d
}

// histogram geometry.
const (
	histW = 320.0
	histH = 60.0
)

// nuafHistogram renders the object's access-frequency histogram bars (the
// §5.2 "plot the hashmap as a histogram" aid for picking hot slices).
func nuafHistogram(rep *core.Report, f *pattern.Finding) []histBar {
	if rep.Recorder == nil {
		return nil
	}
	counts := rep.Recorder.FrequencyHistogram(int(f.Object))
	if len(counts) == 0 {
		return nil
	}
	var maxC uint64
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	if maxC == 0 {
		return nil
	}
	bw := histW / float64(len(counts))
	bars := make([]histBar, 0, len(counts))
	for i, c := range counts {
		h := histH * float64(c) / float64(maxC)
		bars = append(bars, histBar{
			X: float64(i) * bw, Y: histH - h, W: bw - 1, H: h,
			Title: fmt.Sprintf("bucket %d/%d: %d accesses", i+1, len(counts), c),
		})
	}
	return bars
}

// chartPoint maps (topo, bytes) into SVG coordinates.
func chartPoint(topo int, bytes uint64, n int, maxBytes uint64) (float64, float64) {
	spanX := float64(chartW - 2*chartPad)
	spanY := float64(chartH - 2*chartPad)
	den := float64(n - 1)
	if den <= 0 {
		den = 1
	}
	x := chartPad + spanX*float64(topo)/den
	var frac float64
	if maxBytes > 0 {
		frac = float64(bytes) / float64(maxBytes)
	}
	y := float64(chartH-chartPad) - spanY*frac
	return x, y
}

// htmlTemplate is the single-file report layout.
var htmlTemplate = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>DrGPUM report — {{.Device}}</title>
<style>
  body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 60rem; color: #1a1a2e; }
  h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
  .stats { display: flex; gap: 2rem; flex-wrap: wrap; color: #444; }
  .stats b { display: block; font-size: 1.2rem; color: #111; }
  table { border-collapse: collapse; width: 100%; margin-top: .5rem; }
  th, td { text-align: left; padding: .4rem .6rem; border-bottom: 1px solid #e2e2ef; vertical-align: top; }
  th { background: #f4f4fb; }
  .badge { display: inline-block; padding: 0 .4rem; border-radius: .3rem; background: #3d348b; color: #fff; font-size: .75rem; }
  .peakmark { color: #b5179e; font-weight: 600; }
  .suggestion { color: #333; }
  details summary { cursor: pointer; color: #3d348b; }
  pre { background: #f4f4fb; padding: .5rem; overflow-x: auto; font-size: .8rem; }
  svg { background: #fbfbff; border: 1px solid #e2e2ef; border-radius: .4rem; }
</style>
</head>
<body>
<h1>DrGPUM report — {{.Device}}</h1>
<div class="stats">
  <div><b>{{.APIs}}</b> GPU APIs</div>
  <div><b>{{.Objects}}</b> data objects</div>
  <div><b>{{.PeakBytes}}</b> peak bytes</div>
  <div><b>{{.Cycles}}</b> simulated cycles</div>
  <div><b>{{len .Findings}}</b> findings</div>
</div>
<p>{{.Graph}}</p>

<h2>Device memory over topological time</h2>
<svg width="{{.ChartWidth}}" height="{{.ChartHeight}}" role="img" aria-label="memory timeline">
  <path d="{{.ChartPath}}" fill="none" stroke="#3d348b" stroke-width="1.5"/>
  {{range .PeakMarks}}
  <circle cx="{{printf "%.1f" .X}}" cy="{{printf "%.1f" .Y}}" r="4" fill="#b5179e"><title>{{.Label}}</title></circle>
  {{end}}
</svg>
<p>max {{.ChartMaxBytes}} bytes over T=0..{{.ChartMaxTopo}}</p>

{{if .HasAdvice}}
<p><b>What-if:</b> applying all suggestions below would cut the data-object
peak from {{.AdviceOriginal}} to {{.AdviceEstimated}} bytes
(&minus;{{printf "%.0f" .AdvicePct}}%).</p>
{{end}}

<h2>Top memory peaks</h2>
<table>
  <tr><th>#</th><th>T</th><th>bytes</th><th>live objects</th></tr>
  {{range .Peaks}}
  <tr><td>{{.Rank}}</td><td>{{.Topo}}</td><td>{{.Bytes}}</td>
      <td>{{range $i, $o := .Live}}{{if $i}}, {{end}}{{$o}}{{end}}</td></tr>
  {{end}}
</table>

<h2>Findings (most severe first)</h2>
<table>
  <tr><th>#</th><th>pattern</th><th>object</th><th>size</th><th>details</th></tr>
  {{range .Findings}}
  <tr>
    <td>{{.Rank}}</td>
    <td><span class="badge">{{.Abbrev}}</span> {{.Pattern}}{{if .OnPeak}} <span class="peakmark">on peak</span>{{end}}</td>
    <td>{{.Object}}</td>
    <td>{{.Bytes}} B</td>
    <td>
      {{if .Metrics}}<div>{{.Metrics}}</div>{{end}}
      {{if .Distance}}<div>inefficiency distance {{.Distance}}</div>{{end}}
      <div class="suggestion">{{.Suggestion}}</div>
      {{if .Histogram}}
      <svg width="322" height="62" role="img" aria-label="access-frequency histogram">
        {{range .Histogram}}<rect x="{{printf "%.1f" .X}}" y="{{printf "%.1f" .Y}}" width="{{printf "%.1f" .W}}" height="{{printf "%.1f" .H}}" fill="#7209b7"><title>{{.Title}}</title></rect>{{end}}
      </svg>
      {{end}}
      {{if .AllocPath}}<details><summary>allocated at</summary><pre>{{.AllocPath}}</pre></details>{{end}}
    </td>
  </tr>
  {{end}}
</table>
</body>
</html>
`))
