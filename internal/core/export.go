package core

import (
	"fmt"
	"io"
	"strings"
)

// Format selects a Report.Export output format — the one exporter entry
// point behind the text render, the GUI and HTML exports, the saved
// profile and the self-observability summary.
type Format uint8

const (
	// FormatText is the human-readable report (Render without verbose).
	FormatText Format = iota
	// FormatGUI is the Perfetto/Chrome-trace JSON export (liveness.json).
	FormatGUI
	// FormatHTML is the self-contained HTML report.
	FormatHTML
	// FormatProfile is the saved-profile form AnalyzeProfile re-reads.
	FormatProfile
	// FormatStats is the self-observability summary (Report.Stats).
	FormatStats
)

// String names the format.
func (f Format) String() string {
	switch f {
	case FormatText:
		return "text"
	case FormatGUI:
		return "gui"
	case FormatHTML:
		return "html"
	case FormatProfile:
		return "profile"
	case FormatStats:
		return "stats"
	default:
		return fmt.Sprintf("Format(%d)", uint8(f))
	}
}

// exporters holds the renderer-package exporters (GUI, HTML). They are
// registered from init functions — internal/gui registers FormatGUI and
// FormatHTML — so core does not import its own renderers. The public
// drgpum package imports internal/gui, so both formats are always
// registered for external callers.
var exporters = map[Format]func(*Report, io.Writer) error{}

// RegisterExporter installs the exporter for a format. Call from an init
// function; later registrations for the same format win.
func RegisterExporter(f Format, fn func(*Report, io.Writer) error) {
	exporters[f] = fn
}

// Formats returns every format Export can currently produce, in
// declaration order: the built-in formats (text, profile, stats) plus
// whichever renderer formats have a registered exporter. Iteration is
// over the fixed enum, never the registration map, so the order is
// deterministic (the serve report endpoint renders it into error
// messages and tests sweep it).
func Formats() []Format {
	all := []Format{FormatText, FormatGUI, FormatHTML, FormatProfile, FormatStats}
	out := make([]Format, 0, len(all))
	for _, f := range all {
		switch f {
		case FormatText, FormatProfile, FormatStats:
			out = append(out, f)
		default:
			if _, ok := exporters[f]; ok {
				out = append(out, f)
			}
		}
	}
	return out
}

// ParseFormat resolves a format name (the Format.String form, as used by
// the serve report endpoint's ?format= parameter) to its Format. Only
// formats Export can currently produce resolve.
func ParseFormat(name string) (Format, bool) {
	for _, f := range Formats() {
		if f.String() == name {
			return f, true
		}
	}
	return 0, false
}

// Export writes the report to w in the requested format. The underlying
// writers (Render, SaveProfile, and the GUI and HTML exporters the gui
// package registers) produce byte-identical output to the corresponding
// format here.
func (r *Report) Export(w io.Writer, f Format) error {
	switch f {
	case FormatText:
		r.Render(w, false)
		return nil
	case FormatProfile:
		return r.SaveProfile(w)
	case FormatStats:
		_, err := io.WriteString(w, r.Stats())
		return err
	}
	if fn, ok := exporters[f]; ok {
		return fn(r, w)
	}
	return fmt.Errorf("core: no exporter registered for format %s (import drgpum or drgpum/internal/gui)", f)
}

// Stats renders the report's self-observability snapshot as text: counters
// plus the phase span tree with occurrence counts. Wall-clock fields are
// excluded, so the output is byte-identical across runs of a deterministic
// workload (use drgpum-overhead -stats, or Obs.WriteText with wall enabled,
// for self-time). Without Config.Obs it returns a one-line notice.
func (r *Report) Stats() string {
	if r.Obs == nil {
		return "self-observability: disabled (set Config.Obs or use drgpum.WithObservability)\n"
	}
	var b strings.Builder
	r.Obs.WriteText(&b, false)
	return b.String()
}
