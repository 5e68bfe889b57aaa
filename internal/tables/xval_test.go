package tables

import (
	"bytes"
	"strings"
	"testing"

	"drgpum/internal/engine"
	"drgpum/internal/gpu"
	"drgpum/internal/workloads"
)

// TestCrossValidateGate runs the full static-vs-dynamic matrix and
// enforces the advisor's acceptance bar: at least 80% naive-variant
// agreement with the dynamic Table 1 patterns, and zero static-only
// findings on optimized variants (a static-only hit on clean code is an
// advisor false positive).
func TestCrossValidateGate(t *testing.T) {
	rep, err := CrossValidate(engine.Default(), gpu.SpecRTX3090())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2*len(workloads.All()) {
		t.Fatalf("rows = %d, want one per workload and variant", len(rep.Rows))
	}
	if err := rep.Gate(0.8); err != nil {
		t.Fatal(err)
	}

	// The advisor must actually confirm patterns, not pass vacuously.
	confirmed := 0
	for _, row := range rep.Rows {
		if row.Variant == workloads.VariantNaive {
			confirmed += len(row.Confirmed)
		}
	}
	if confirmed < 20 {
		t.Errorf("only %d naive-variant confirmations; static coverage regressed", confirmed)
	}

	var buf bytes.Buffer
	RenderXVal(&buf, rep)
	out := buf.String()
	for _, want := range []string{"PROGRAM", "rodinia/dwt2d", "naive agreement:", "static-only on optimized: 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestCrossValidateKnownRows pins a few agreement rows end to end: the
// statically tractable workloads must confirm their lifetime patterns,
// and the advisor must never report a pattern the profiler misses.
func TestCrossValidateKnownRows(t *testing.T) {
	rep, err := CrossValidate(engine.Default(), gpu.SpecRTX3090())
	if err != nil {
		t.Fatal(err)
	}
	wantConfirmed := map[string][]string{
		"rodinia/dwt2d":   {"EA", "LD", "UA", "DW"},
		"rodinia/huffman": {"EA", "LD", "UA"},
		"polybench/bicg":  {"EA", "LD"},
		"simplemulticopy": {"EA", "LD", "DW"},
	}
	for _, row := range rep.Rows {
		if row.Variant != workloads.VariantNaive {
			continue
		}
		want, ok := wantConfirmed[row.Program]
		if !ok {
			continue
		}
		got := make([]string, len(row.Confirmed))
		for i, p := range row.Confirmed {
			got[i] = p.Abbrev()
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s naive confirmed {%s}, want {%s}",
				row.Program, strings.Join(got, ","), strings.Join(want, ","))
		}
		if len(row.StaticOnly) != 0 {
			t.Errorf("%s naive has static-only findings %v", row.Program, row.StaticOnly)
		}
	}
}
