package drgpum_test

import (
	"bytes"
	"strings"
	"testing"

	"drgpum"
	"drgpum/gpusim"
)

// TestPublicAPIQuickstart exercises the documented minimal workflow end to
// end through the public packages only.
func TestPublicAPIQuickstart(t *testing.T) {
	dev := gpusim.NewDevice(gpusim.SpecRTX3090())
	prof := drgpum.New(dev, drgpum.WithIntraObject())

	buf, err := dev.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if !prof.Annotate(buf, "workbuf", 4) {
		t.Fatal("Annotate failed")
	}
	unused, err := dev.Malloc(8192)
	if err != nil {
		t.Fatal(err)
	}
	prof.Annotate(unused, "spare", 4)

	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	if err := dev.MemcpyHtoD(buf, data, nil); err != nil {
		t.Fatal(err)
	}
	if err := dev.LaunchFunc(nil, "inc", gpusim.Dim1(4), gpusim.Dim1(256),
		func(ctx *gpusim.ExecContext) {
			for i := 0; i < 1024; i++ {
				addr := buf + gpusim.DevicePtr(i*4)
				ctx.StoreU32(addr, ctx.LoadU32(addr)+1)
			}
		}); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4096)
	if err := dev.MemcpyDtoH(out, buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := dev.Free(buf); err != nil {
		t.Fatal(err)
	}
	if err := dev.Free(unused); err != nil {
		t.Fatal(err)
	}

	rep := prof.Finish()
	if !rep.HasPattern(drgpum.UnusedAllocation) {
		t.Errorf("quickstart report missed the unused allocation: %v", rep.PatternSet())
	}
	if got := rep.PatternsForObject("spare"); len(got) == 0 {
		t.Error("annotation did not reach the report")
	}
	// An allocation site is the program's own call into the simulator.
	for _, a := range rep.Advice() {
		if !strings.Contains(a.AllocSite, ".TestPublicAPIQuickstart (drgpum_test.go:") {
			t.Errorf("%s on %s: alloc site %q is not this test's line", a.PatternID, a.Object, a.AllocSite)
		}
	}

	var buf2 bytes.Buffer
	if err := rep.Export(&buf2, drgpum.FormatGUI); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), "workbuf") && !strings.Contains(buf2.String(), "spare") {
		t.Error("GUI export missing annotated objects")
	}
}

func TestPublicAPIPool(t *testing.T) {
	dev := gpusim.NewDevice(gpusim.SpecA100())
	prof := drgpum.New(dev)
	pool := drgpum.NewPool(dev, 32<<10)
	prof.AttachPool(pool)

	tensor, err := pool.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	prof.Annotate(tensor, "t0", 4)
	if err := pool.Free(tensor); err != nil {
		t.Fatal(err)
	}
	if err := pool.Release(); err != nil {
		t.Fatal(err)
	}

	rep := prof.Finish()
	// The tensor is a report object; the backing segment is not.
	found := false
	for _, o := range rep.Trace.Objects {
		if o.Label == "t0" && o.Pool {
			found = true
		}
		if o.PoolSegment && len(o.Accesses) > 0 {
			t.Error("segment carries accesses")
		}
	}
	if !found {
		t.Error("pool tensor missing from the trace")
	}
}

func TestAllPatternsExported(t *testing.T) {
	all := drgpum.AllPatterns()
	if len(all) != 11 {
		t.Fatalf("AllPatterns = %d", len(all))
	}
	if all[0] != drgpum.EarlyAllocation || all[9] != drgpum.StructuredAccess {
		t.Errorf("pattern order: %v", all)
	}
	if drgpum.NumPaperPatterns != 10 || all[10] != drgpum.UncoalescedAccess {
		t.Errorf("repo extensions must follow the paper's ten: %v", all)
	}
	if p, ok := drgpum.ParsePatternID("uncoalesced-access"); !ok || p != drgpum.UncoalescedAccess {
		t.Errorf("ParsePatternID(uncoalesced-access) = %v, %v", p, ok)
	}
	if drgpum.SeverityError.String() != "error" {
		t.Errorf("SeverityError = %q", drgpum.SeverityError)
	}
}

// TestCostModelAdviceAPI drives the redesigned Advice API end to end
// through the facade: an uncoalesced kernel must surface as a ranked
// Advice entry carrying cycles, and WithoutCostModel must suppress both
// the pattern and the cycle figures.
func TestCostModelAdviceAPI(t *testing.T) {
	run := func(opts ...drgpum.Option) *drgpum.Report {
		dev := gpusim.NewDevice(gpusim.SpecRTX3090())
		prof := drgpum.New(dev, opts...)
		buf, err := dev.Malloc(64 << 10)
		if err != nil {
			t.Fatal(err)
		}
		prof.Annotate(buf, "strided", 4)
		if err := dev.LaunchFunc(nil, "scatter", gpusim.Dim1(4), gpusim.Dim1(256),
			func(ctx *gpusim.ExecContext) {
				for i := 0; i < 1024; i++ {
					ctx.StoreU32(buf+gpusim.DevicePtr((i*61%1024)*16), uint32(i))
				}
			}); err != nil {
			t.Fatal(err)
		}
		if err := dev.Free(buf); err != nil {
			t.Fatal(err)
		}
		return prof.Finish()
	}

	rep := run()
	if !rep.HasPattern(drgpum.UncoalescedAccess) {
		t.Fatalf("strided kernel not flagged: %v", rep.PatternSet())
	}
	advice := rep.Advice()
	if len(advice) == 0 {
		t.Fatal("no advice")
	}
	var uc *drgpum.Advice
	for i := range advice {
		if advice[i].PatternID == "uncoalesced-access" {
			uc = &advice[i]
		}
	}
	if uc == nil {
		t.Fatalf("uncoalesced-access missing from advice: %+v", advice)
	}
	if uc.CyclesSaved == 0 || uc.ModeledCycles == 0 {
		t.Errorf("advice carries no cycles: %+v", *uc)
	}
	if uc.Object != "strided" || uc.Kernel != "scatter" {
		t.Errorf("advice misattributed: %+v", *uc)
	}
	if uc.Confidence <= 0 || uc.Confidence > 1 {
		t.Errorf("confidence out of range: %v", uc.Confidence)
	}
	for i := 1; i < len(advice); i++ {
		if advice[i-1].CyclesSaved < advice[i].CyclesSaved &&
			advice[i-1].Severity == advice[i].Severity {
			t.Errorf("advice not ranked by cycles within severity: %+v", advice)
		}
	}

	off := run(drgpum.WithoutCostModel())
	if off.HasPattern(drgpum.UncoalescedAccess) {
		t.Error("WithoutCostModel still detects uncoalesced access")
	}
	for _, a := range off.Advice() {
		if a.CyclesSaved != 0 || a.ModeledCycles != 0 {
			t.Errorf("WithoutCostModel advice carries cycles: %+v", a)
		}
	}

	spec := drgpum.CostModelSpec{}
	custom := run(drgpum.WithCostModel(spec))
	if !custom.HasPattern(drgpum.UncoalescedAccess) {
		t.Error("WithCostModel(zero spec) should derive a device spec and detect UC")
	}
}

func TestFacadeBFCAndHTML(t *testing.T) {
	dev := gpusim.NewDevice(gpusim.SpecRTX3090())
	prof := drgpum.New(dev)
	arena := drgpum.NewBFC(dev, 64<<10)
	prof.AttachPool(arena)

	tensor, err := arena.Alloc(2048)
	if err != nil {
		t.Fatal(err)
	}
	prof.Annotate(tensor, "w0", 4)
	if err := dev.MemcpyHtoD(tensor, make([]byte, 2048), nil); err != nil {
		t.Fatal(err)
	}
	if err := arena.Free(tensor); err != nil {
		t.Fatal(err)
	}
	if err := arena.Release(); err != nil {
		t.Fatal(err)
	}

	rep := prof.Finish()
	var buf bytes.Buffer
	if err := rep.Export(&buf, drgpum.FormatHTML); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "w0") {
		t.Error("HTML export missing the BFC tensor")
	}

	// Offline round trip through the facade.
	buf.Reset()
	if err := rep.SaveProfile(&buf); err != nil {
		t.Fatal(err)
	}
	rep2, err := drgpum.AnalyzeProfile(&buf, drgpum.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Trace.Objects) != len(rep.Trace.Objects) {
		t.Error("offline round trip lost objects")
	}
}
