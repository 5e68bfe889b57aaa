package tables

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"drgpum/internal/core"
	"drgpum/internal/engine"
	"drgpum/internal/gpu"
	"drgpum/internal/gui"
	"drgpum/internal/memcheck"
	"drgpum/internal/pattern"
	"drgpum/internal/workloads"
)

// profile returns w's Table 1 profile (naive variant, RTX 3090,
// intra-object, every launch) from the shared engine, so the table sweeps
// and these spot checks execute each tuple once per process.
func profile(w *workloads.Workload) (*core.Report, error) {
	res, err := engine.Default().Run([]engine.RunSpec{{
		Workload: w,
		Spec:     gpu.SpecRTX3090(),
		Variant:  workloads.VariantNaive,
		Level:    gpu.PatchFull,
		Sampling: 1,
	}})
	if err != nil {
		return nil, err
	}
	return res[0].Report, nil
}

// paperTable1 is the paper's Table 1 matrix, row for row. Keys are
// pattern abbreviations.
var paperTable1 = map[string][]string{
	"rodinia/huffman":       {"EA", "LD", "RA", "UA", "TI"},
	"rodinia/dwt2d":         {"EA", "LD", "RA", "UA", "TI", "DW"},
	"polybench/2mm":         {"EA", "LD", "RA"},
	"polybench/3mm":         {"EA", "LD", "RA", "TI"},
	"polybench/gramschmidt": {"EA", "LD", "TI", "NUAF", "SA"},
	"polybench/bicg":        {"EA", "LD", "RA", "NUAF"},
	"pytorch":               {"EA", "LD", "RA", "UA", "TI"},
	"laghos":                {"EA", "LD", "RA", "UA", "TI", "DW"},
	"darknet":               {"EA", "LD", "RA", "UA", "ML", "TI", "DW"},
	"xsbench":               {"ML", "OA"},
	"minimdock":             {"EA", "LD", "UA", "TI", "OA"},
	"simplemulticopy":       {"EA", "LD", "TI", "DW"},
	// The two traffic-bound companions exhibit none of the paper's ten
	// patterns: their only inefficiency is uncoalesced access, which is a
	// repo extension and so excluded from the Table 1 matrix columns.
	"sdk/matrixtranspose": {},
	"sdk/particles":       {},
}

// TestTable1PatternMatrix profiles every naive workload and requires the
// detected pattern set to equal the paper's Table 1 row exactly.
func TestTable1PatternMatrix(t *testing.T) {
	rows, err := Table1(engine.Default(), gpu.SpecRTX3090())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(paperTable1) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		want := paperTable1[row.Program]
		got := make([]string, len(row.Patterns))
		for i, p := range row.Patterns {
			got[i] = p.Abbrev()
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s: detected {%s}, paper has {%s}",
				row.Program, strings.Join(got, ","), strings.Join(want, ","))
		}
	}
}

// paperTable4 records the paper's peak reductions (percent). The simulator
// is expected to land within a few points of each.
var paperTable4 = map[string]float64{
	"rodinia/huffman": 67,
	"rodinia/dwt2d":   48,
	"polybench/2mm":   40,
	"polybench/3mm":   57,
	"pytorch":         3,
	"laghos":          35,
	"darknet":         83,
	"xsbench":         63,
	"minimdock":       64,
	"simplemulticopy": 50,
	// gramschmidt's entry is both a reduction (33%) and a speedup row.
	"polybench/gramschmidt": 33,
}

// TestTable4Reductions checks every measured peak reduction against the
// paper within a +-5 percentage-point band, and the speedups against the
// paper's factors within +-15%.
func TestTable4Reductions(t *testing.T) {
	rows, err := Table4(engine.Default())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table4Row{}
	for _, r := range rows {
		byName[r.Program] = r
	}
	for name, want := range paperTable4 {
		row, ok := byName[name]
		if !ok {
			t.Errorf("missing row %s", name)
			continue
		}
		if math.Abs(row.ReductionPct-want) > 5 {
			t.Errorf("%s: reduction %.1f%%, paper %.0f%%", name, row.ReductionPct, want)
		}
	}
	// BICG is a pure-speedup row.
	bicg := byName["polybench/bicg"]
	if !bicg.Perf || math.Abs(bicg.ReductionPct) > 1 {
		t.Errorf("bicg row = %+v, want a speedup-only row", bicg)
	}
	checkSpeedup := func(name string, got, paper float64) {
		if math.Abs(got-paper)/paper > 0.15 {
			t.Errorf("%s speedup %.2fx, paper %.2fx", name, got, paper)
		}
	}
	checkSpeedup("gramschmidt RTX3090", byName["polybench/gramschmidt"].SpeedupRTX3090, 1.39)
	checkSpeedup("gramschmidt A100", byName["polybench/gramschmidt"].SpeedupA100, 1.30)
	checkSpeedup("bicg RTX3090", bicg.SpeedupRTX3090, 2.06)
	checkSpeedup("bicg A100", bicg.SpeedupA100, 2.48)

	// The cost model prices every naive profile, so each row carries a
	// predicted traffic speedup; the purpose-built uncoalesced workloads
	// must predict a clearly recoverable traffic share.
	for _, r := range rows {
		if r.PredictedSpeedup < 1 {
			t.Errorf("%s: predicted speedup %.2f < 1", r.Program, r.PredictedSpeedup)
		}
	}
	for _, name := range []string{"sdk/matrixtranspose", "sdk/particles"} {
		if s := byName[name].PredictedSpeedup; s < 1.2 {
			t.Errorf("%s: predicted traffic speedup %.2f, want >= 1.2", name, s)
		}
	}
}

// TestTable5Coverage requires the exact tool-coverage matrix of the
// paper's Table 5: DrGPUM detects everything; ValueExpert only lets the
// user reason about unused allocations; Compute Sanitizer only reports
// memory leaks.
func TestTable5Coverage(t *testing.T) {
	rows, err := Table5(engine.Default(), gpu.SpecRTX3090())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != pattern.NumPatterns {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.DrGPUM {
			t.Errorf("%s: DrGPUM did not detect it anywhere in the suite", r.Pattern)
		}
		wantVE := r.Pattern == pattern.UnusedAllocation
		wantCS := r.Pattern == pattern.MemoryLeak
		if r.ValueExpert != wantVE {
			t.Errorf("%s: ValueExpert = %v, paper says %v", r.Pattern, r.ValueExpert, wantVE)
		}
		if r.ComputeSanitizer != wantCS {
			t.Errorf("%s: Compute Sanitizer = %v, paper says %v", r.Pattern, r.ComputeSanitizer, wantCS)
		}
	}
}

// TestValueExpertPerProgram pins each baselines run's ValueExpert set,
// which Table 5 only sees aggregated over the naive variants. The naive
// runs are the ones Table5 submits, so engine.Default serves them from
// its cache when both tests run.
func TestValueExpertPerProgram(t *testing.T) {
	unused := map[string]bool{
		"rodinia/huffman": true,
		"rodinia/dwt2d":   true,
		"pytorch":         true,
		"laghos":          true,
		"darknet":         true,
		"minimdock":       true,
	}
	var specs []engine.RunSpec
	for _, w := range workloads.All() {
		for _, v := range []workloads.Variant{workloads.VariantNaive, workloads.VariantOptimized} {
			specs = append(specs, engine.RunSpec{
				Mode:     engine.ModeBaselines,
				Workload: w,
				Spec:     gpu.SpecRTX3090(),
				Variant:  v,
			})
		}
	}
	results, err := engine.Default().Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		var want []pattern.Pattern
		if s.Variant == workloads.VariantNaive && unused[s.Workload.Name] {
			want = []pattern.Pattern{pattern.UnusedAllocation}
		}
		if got := results[i].ValueExpert; !slices.Equal(got, want) {
			t.Errorf("%s/%s: ValueExpert = %v, want %v", s.Workload.Name, s.Variant, got, want)
		}
	}
}

// TestComputeSanitizerColumn pins how Table 5's Compute Sanitizer column
// reads a baselines run's memory-safety report: of the four bug classes
// memcheck/knownbad plants, only the leak names a DrGPUM pattern, and the
// clean optimized variant names none.
func TestComputeSanitizerColumn(t *testing.T) {
	run := func(t *testing.T, v workloads.Variant) *memcheck.Report {
		t.Helper()
		res, err := engine.Default().Run([]engine.RunSpec{{
			Mode:     engine.ModeBaselines,
			Workload: workloads.KnownBad(),
			Spec:     gpu.SpecRTX3090(),
			Variant:  v,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return res[0].Memcheck
	}

	t.Run("naive", func(t *testing.T) {
		naive := run(t, workloads.VariantNaive)
		classes := make(map[memcheck.Class]bool)
		for _, is := range naive.Issues {
			classes[is.Class] = true
		}
		for _, c := range []memcheck.Class{memcheck.ClassOOB, memcheck.ClassUseAfterFree, memcheck.ClassUninitRead, memcheck.ClassLeak} {
			if !classes[c] {
				t.Errorf("naive report lacks the planted %v", c)
			}
		}
		if got := sanitizerPatterns(naive); !slices.Equal(got, []pattern.Pattern{pattern.MemoryLeak}) {
			t.Errorf("naive column = %v, want [%v]", got, pattern.MemoryLeak)
		}
	})

	t.Run("optimized", func(t *testing.T) {
		opt := run(t, workloads.VariantOptimized)
		if !opt.Clean() {
			t.Errorf("optimized report has %d issue(s), want none", len(opt.Issues))
		}
		if got := sanitizerPatterns(opt); len(got) != 0 {
			t.Errorf("optimized column = %v, want empty", got)
		}
	})
}

// TestTable4NativeRunsCached pins that Table 4's speedup columns come from
// ordinary cached runs: they read only simulated cycles, which are
// deterministic, so a second call on the same engine executes nothing and
// renders the same bytes.
func TestTable4NativeRunsCached(t *testing.T) {
	e := engine.New(engine.Config{})
	render := func() ([]byte, engine.Stats) {
		rows, err := Table4(e)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		RenderTable4(&b, rows)
		return b.Bytes(), e.Stats()
	}
	first, st1 := render()
	second, st2 := render()
	if st2.Misses != st1.Misses {
		t.Errorf("second Table4 executed runs: misses %d -> %d", st1.Misses, st2.Misses)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("second Table4 rendered different bytes (%d vs %d)", len(second), len(first))
	}
}

// TestTable4NamedObjects spot-checks that the paper's Table 4 object/
// pattern pairs are attributed to the right named objects.
func TestTable4NamedObjects(t *testing.T) {
	cases := []struct {
		workload string
		object   string
		abbrev   string
	}{
		{"rodinia/huffman", "d_cw32", "UA"},
		{"rodinia/huffman", "d_sourceData", "LD"},
		{"rodinia/dwt2d", "c_r_out", "EA"},
		{"rodinia/dwt2d", "backup", "UA"},
		{"polybench/2mm", "A_gpu", "LD"},
		{"polybench/2mm", "D_gpu", "EA"},
		{"polybench/3mm", "E_gpu", "TI"},
		{"polybench/gramschmidt", "R_gpu", "SA"},
		{"polybench/gramschmidt", "R_gpu", "NUAF"},
		{"polybench/bicg", "s_gpu", "NUAF"},
		{"polybench/bicg", "q_gpu", "NUAF"},
		{"pytorch", "conv3.columns", "UA"},
		{"laghos", "q_dx", "LD"},
		{"laghos", "q_dy", "LD"},
		{"darknet", "l0.weights_gpu", "DW"},
		{"darknet", "l0.output_gpu", "EA"},
		{"darknet", "l0.delta_gpu", "UA"},
		{"xsbench", "GSD.concs", "ML"},
		{"xsbench", "GSD.index_grid", "OA"},
		{"minimdock", "pMem_conformations", "OA"},
		{"simplemulticopy", "d_data_in1", "TI"},
		{"simplemulticopy", "d_data_out1", "EA"},
		{"simplemulticopy", "d_data_in2", "LD"},
		{"simplemulticopy", "d_data_out2", "LD"},
	}

	reports := map[string]interface {
		PatternsForObject(string) []pattern.Pattern
	}{}
	for _, c := range cases {
		if _, ok := reports[c.workload]; ok {
			continue
		}
		w, _ := workloads.ByName(c.workload)
		rep, err := profile(w)
		if err != nil {
			t.Fatal(err)
		}
		reports[c.workload] = rep
	}

	for _, c := range cases {
		want, _ := pattern.ParseAbbrev(c.abbrev)
		found := false
		for _, p := range reports[c.workload].PatternsForObject(c.object) {
			if p == want {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: object %q missing pattern %s (has %v)",
				c.workload, c.object, c.abbrev, reports[c.workload].PatternsForObject(c.object))
		}
	}
}

// TestPaperMetricsSpotChecks verifies the two quantitative intra-object
// claims the paper makes about specific objects.
func TestPaperMetricsSpotChecks(t *testing.T) {
	// MiniMDock §7.6: pMem_conformations has ~2.4e-3% of elements accessed
	// and fragmentation ~4.89e-3%.
	w, _ := workloads.ByName("minimdock")
	rep, err := profile(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.FindingsForObject("pMem_conformations") {
		if f.Pattern != pattern.Overallocation {
			continue
		}
		if f.AccessedPct > 0.01 {
			t.Errorf("pMem accessed %.4g%%, paper reports 2.4e-3%%", f.AccessedPct)
		}
		if f.FragmentationPct > 1 {
			t.Errorf("pMem fragmentation %.4g%%, paper reports ~0", f.FragmentationPct)
		}
	}

	// XSBench §7.5: GSD.index_grid is ~5% accessed.
	w, _ = workloads.ByName("xsbench")
	rep, err = profile(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.FindingsForObject("GSD.index_grid") {
		if f.Pattern != pattern.Overallocation {
			continue
		}
		if math.Abs(f.AccessedPct-5) > 1 {
			t.Errorf("index_grid accessed %.3g%%, paper reports ~5%%", f.AccessedPct)
		}
	}

	// GramSchmidt §7.3: the slice-level access-frequency variation of
	// R_gpu is 58%.
	w, _ = workloads.ByName("polybench/gramschmidt")
	rep, err = profile(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.FindingsForObject("R_gpu") {
		if f.Pattern != pattern.NonUniformAccessFrequency {
			continue
		}
		if math.Abs(f.VariationPct-58) > 5 {
			t.Errorf("R_gpu variation %.3g%%, paper reports 58%%", f.VariationPct)
		}
	}
}

func TestRenderers(t *testing.T) {
	rows1, err := Table1(engine.Default(), gpu.SpecRTX3090())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	RenderTable1(&b, rows1)
	if !strings.Contains(b.String(), "rodinia/huffman") || !strings.Contains(b.String(), "NUAF") {
		t.Error("Table 1 rendering incomplete")
	}

	rows5, err := Table5(engine.Default(), gpu.SpecRTX3090())
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	RenderTable5(&b, rows5)
	if !strings.Contains(b.String(), "Compute Sanitizer") {
		t.Error("Table 5 rendering incomplete")
	}
}

// TestAdvisorPredictsTable4 validates the what-if estimator against the
// ground truth of the hand-optimized variants: for most workloads the
// predicted peak reduction must land within 8 percentage points of the
// measured one. Two documented exceptions:
//
//   - rodinia/dwt2d: the advisor also applies the temporary-idleness
//     offloading suggestion, which the paper's chosen fix (and ours) does
//     not — so it predicts MORE savings than the hand fix realizes;
//   - simplemulticopy: the measured 50% comes from restructuring the
//     program around one reused buffer pair, which no per-finding
//     suggestion expresses — the advisor correctly predicts ~0% because
//     all four buffers genuinely coexist at the concurrent peak.
func TestAdvisorPredictsTable4(t *testing.T) {
	rows, err := Table4(engine.Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		w, _ := workloads.ByName(row.Program)
		rep, err := profile(w)
		if err != nil {
			t.Fatal(err)
		}
		pred := rep.WhatIf.ReductionPct
		switch row.Program {
		case "rodinia/dwt2d":
			if pred < row.ReductionPct-1 {
				t.Errorf("%s: prediction %.1f%% below the hand fix %.1f%% (offloading should only add savings)",
					row.Program, pred, row.ReductionPct)
			}
		case "simplemulticopy":
			if pred > 10 {
				t.Errorf("%s: prediction %.1f%%; suggestions alone cannot break the concurrent peak", row.Program, pred)
			}
		default:
			if math.Abs(pred-row.ReductionPct) > 8 {
				t.Errorf("%s: predicted %.1f%%, measured %.1f%%", row.Program, pred, row.ReductionPct)
			}
		}
	}
}

// TestTable1DeviceStability asserts the pattern matrix is identical on both
// device specs — the paper's Table 4 footnote generalized: detections are
// properties of the program, not the hardware.
func TestTable1DeviceStability(t *testing.T) {
	rtx, err := Table1(engine.Default(), gpu.SpecRTX3090())
	if err != nil {
		t.Fatal(err)
	}
	a100, err := Table1(engine.Default(), gpu.SpecA100())
	if err != nil {
		t.Fatal(err)
	}
	for i := range rtx {
		if rtx[i].Program != a100[i].Program {
			t.Fatalf("row order differs")
		}
		if len(rtx[i].Patterns) != len(a100[i].Patterns) {
			t.Errorf("%s: %v vs %v across devices", rtx[i].Program, rtx[i].Patterns, a100[i].Patterns)
			continue
		}
		for j := range rtx[i].Patterns {
			if rtx[i].Patterns[j] != a100[i].Patterns[j] {
				t.Errorf("%s: %v vs %v across devices", rtx[i].Program, rtx[i].Patterns, a100[i].Patterns)
				break
			}
		}
	}
}

// TestAllWorkloadReportsRender smoke-tests every output path over every
// workload's profile: text render (verbose), JSON, Perfetto export, HTML
// export, and profile save/re-analysis — a panic/regression net across the
// full diversity of real traces.
func TestAllWorkloadReportsRender(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			rep, err := profile(w)
			if err != nil {
				t.Fatal(err)
			}
			var text strings.Builder
			rep.Render(&text, true)
			if !strings.Contains(text.String(), "findings:") {
				t.Error("text render incomplete")
			}
			if _, err := rep.MarshalJSON(); err != nil {
				t.Errorf("JSON: %v", err)
			}
			var buf bytes.Buffer
			if err := gui.Export(rep, &buf); err != nil {
				t.Errorf("Perfetto export: %v", err)
			}
			buf.Reset()
			if err := gui.ExportHTML(rep, &buf); err != nil {
				t.Errorf("HTML export: %v", err)
			}
			buf.Reset()
			if err := rep.SaveProfile(&buf); err != nil {
				t.Errorf("SaveProfile: %v", err)
			}
			if _, err := core.AnalyzeProfile(bytes.NewReader(buf.Bytes()), core.DefaultConfig()); err != nil {
				t.Fatalf("AnalyzeProfile: %v", err)
			}
		})
	}
}

// TestReplayMatchesLive pins the live-vs-replay identity contract: for every
// program, bundled and extra, both variants, at object level with the cost
// model on and off, re-analyzing the saved profile under the live run's
// configuration yields a report whose JSON and verbose text are
// byte-identical to the live report's. (Intra-object findings are
// online-only, so the contract is stated at object level.)
func TestReplayMatchesLive(t *testing.T) {
	programs := append(workloads.All(), workloads.Extras()...)
	for _, w := range programs {
		for _, v := range []workloads.Variant{workloads.VariantNaive, workloads.VariantOptimized} {
			for _, costOff := range []bool{false, true} {
				cost := "cost-on"
				if costOff {
					cost = "cost-off"
				}
				t.Run(w.Name+"/"+v.String()+"/"+cost, func(t *testing.T) {
					cfg := core.DefaultConfig()
					cfg.CostModel.Disabled = costOff
					dev := gpu.NewDevice(gpu.SpecRTX3090())
					prof := core.Attach(dev, cfg)
					if err := w.Run(dev, prof, v); err != nil {
						t.Fatal(err)
					}
					live := prof.Finish()
					var saved bytes.Buffer
					if err := live.SaveProfile(&saved); err != nil {
						t.Fatal(err)
					}
					replay, err := core.AnalyzeProfile(&saved, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if (live.CostModel == nil) != costOff {
						t.Fatalf("live cost model = %v with Disabled = %v", live.CostModel, costOff)
					}
					liveJS, err := live.MarshalJSON()
					if err != nil {
						t.Fatal(err)
					}
					replayJS, err := replay.MarshalJSON()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(liveJS, replayJS) {
						t.Errorf("replay JSON differs from live:\n--- live\n%s\n--- replay\n%s", liveJS, replayJS)
					}
					var liveTxt, replayTxt strings.Builder
					live.Render(&liveTxt, true)
					replay.Render(&replayTxt, true)
					if liveTxt.String() != replayTxt.String() {
						t.Errorf("replay text differs from live:\n--- live\n%s\n--- replay\n%s", liveTxt.String(), replayTxt.String())
					}
				})
			}
		}
	}
}

// TestSyntheticExhibitsAllTenPatterns profiles the kitchen-sink program:
// one trace must yield every pattern of §3 — the executable form of the
// paper's taxonomy.
func TestSyntheticExhibitsAllTenPatterns(t *testing.T) {
	w := workloads.Synthetic()
	rep, err := profile(w)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.PatternSet()
	if len(got) != pattern.NumPatterns {
		missing := map[pattern.Pattern]bool{}
		for _, p := range pattern.All() {
			missing[p] = true
		}
		for _, p := range got {
			delete(missing, p)
		}
		t.Fatalf("kitchen sink yielded %d/%d patterns; missing: %v", len(got), pattern.NumPatterns, missing)
	}
	// Named attribution spot checks.
	for _, c := range []struct {
		object string
		abbrev string
	}{
		{"out", "EA"}, {"in", "LD"}, {"stage2", "RA"}, {"ghost", "UA"},
		{"persist", "ML"}, {"warm", "TI"}, {"in", "DW"}, {"sparse", "OA"},
		{"skew", "NUAF"}, {"sliced", "SA"}, {"grid", "UC"},
	} {
		want, _ := pattern.ParseAbbrev(c.abbrev)
		found := false
		for _, p := range rep.PatternsForObject(c.object) {
			if p == want {
				found = true
			}
		}
		if !found {
			t.Errorf("object %q missing %s (has %v)", c.object, c.abbrev, rep.PatternsForObject(c.object))
		}
	}
}
