package overhead

import (
	"math"
	"strings"
	"testing"

	"drgpum/internal/gpu"
	"drgpum/internal/obs"
	"drgpum/internal/workloads"
)

func TestMedianAndGeomean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %g", got)
	}
	if got := geomean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("geomean = %g", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with zero = %g", got)
	}
}

func TestSummarizeGroupsByDevice(t *testing.T) {
	rows := []Row{
		{Program: "a", Device: "X", ObjectOverhead: 1, IntraOverhead: 2},
		{Program: "b", Device: "X", ObjectOverhead: 4, IntraOverhead: 8},
		{Program: "a", Device: "Y", ObjectOverhead: 3, IntraOverhead: 3},
	}
	s := Summarize(rows)
	if len(s) != 2 || s[0].Device != "X" || s[1].Device != "Y" {
		t.Fatalf("summaries = %+v", s)
	}
	if s[0].ObjectMedian != 2.5 || math.Abs(s[0].ObjectGeomean-2) > 1e-12 {
		t.Errorf("device X object summary = %+v", s[0])
	}
	if s[1].IntraMedian != 3 {
		t.Errorf("device Y = %+v", s[1])
	}
}

// TestFigure6Shape measures one real workload at all three patch levels and
// checks the figure's structural claims: instrumentation costs something,
// and intra-object analysis costs at least as much as object-level.
func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	spec := gpu.SpecRTX3090()
	rows, err := Measure(nil, []gpu.DeviceSpec{spec}, Options{Repeats: 3, SamplingPeriod: 100})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(workloads.All()); len(rows) != want {
		t.Fatalf("rows = %d, want one per workload (%d)", len(rows), want)
	}
	var objectWins, intraAtLeastObject int
	for _, r := range rows {
		if r.ObjectOverhead > 1.0 {
			objectWins++
		}
		if r.IntraNs >= r.ObjectNs {
			intraAtLeastObject++
		}
	}
	// Timing noise tolerance: the clear majority must show the expected
	// ordering (in the paper every benchmark does).
	if objectWins < 9 {
		t.Errorf("only %d/%d workloads show object-level overhead > 1x", objectWins, len(rows))
	}
	if intraAtLeastObject < 9 {
		t.Errorf("only %d/%d workloads have intra-object >= object-level cost", intraAtLeastObject, len(rows))
	}

	var b strings.Builder
	Render(&b, rows)
	if !strings.Contains(b.String(), "geomean") {
		t.Error("render missing summary lines")
	}
}

// TestEveryRepeatExecutes: each repeat of a median must really run, since
// deduplicating a median's samples would fabricate data. Measure's
// engines must count one fresh execution per (repeat, stage) and serve
// nothing from a cache.
func TestEveryRepeatExecutes(t *testing.T) {
	const repeats = 2
	rec := obs.New()
	rows, err := Measure(rec, []gpu.DeviceSpec{gpu.SpecRTX3090()},
		Options{Repeats: repeats, Workloads: []string{"simplemulticopy"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Program != "simplemulticopy" {
		t.Fatalf("rows = %+v, want one simplemulticopy row", rows)
	}
	c := map[string]uint64{}
	for _, v := range rec.Snapshot().Counters {
		c[v.Name] = v.Value
	}
	want := uint64(repeats * len(stages))
	if c["engine runs"] != want || c["engine misses"] != want {
		t.Errorf("engine runs %d, misses %d; want %d of each", c["engine runs"], c["engine misses"], want)
	}
	if got := c["engine cache hits"] + c["engine dedups"]; got != 0 {
		t.Errorf("engine hits + dedups = %d, want 0", got)
	}
}

func TestRenderSVG(t *testing.T) {
	rows := []Row{
		{Program: "rodinia/huffman", Device: "RTX3090", ObjectOverhead: 1.2, IntraOverhead: 2.4},
		{Program: "minimdock", Device: "RTX3090", ObjectOverhead: 1.1, IntraOverhead: 4.2},
		{Program: "rodinia/huffman", Device: "A100", ObjectOverhead: 1.3, IntraOverhead: 2.1},
	}
	var b strings.Builder
	if err := RenderSVG(&b, rows); err != nil {
		t.Fatal(err)
	}
	svg := b.String()
	for _, want := range []string{"<svg", "RTX3090", "A100", "huffman", "object-level: 1.20x", "intra-object: 4.20x", "</svg>"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Two bars per row.
	if got := strings.Count(svg, "<rect"); got < 2*len(rows) {
		t.Errorf("bars = %d", got)
	}
	if err := RenderSVG(&b, nil); err == nil {
		t.Error("empty rows accepted")
	}
}
