package core

import (
	"encoding/json"
	"strings"
	"testing"

	"drgpum/internal/gpu"
	"drgpum/internal/pattern"
	"drgpum/internal/pool"
)

// profileFixture builds a report with several findings and a pool tensor.
func profileFixture(t *testing.T) *Report {
	t.Helper()
	dev := gpu.NewDevice(gpu.SpecTest())
	p := Attach(dev, IntraObjectConfig())

	big, err := dev.Malloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	p.Annotate(big, "big_unused", 4)
	small, err := dev.Malloc(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	p.Annotate(small, "small_unused", 4)

	used, err := dev.Malloc(4 << 10)
	if err != nil {
		t.Fatal(err)
	}
	p.Annotate(used, "used", 4)
	if err := dev.LaunchFunc(nil, "k", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
		for i := 0; i < 1024; i++ {
			ctx.StoreU32(used+gpu.DevicePtr(i*4), uint32(i))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := dev.Free(used); err != nil {
		t.Fatal(err)
	}
	return p.Finish()
}

func TestSeverityOrdersByWastedBytes(t *testing.T) {
	rep := profileFixture(t)
	// Both unused objects leak and are unused; the larger one must rank
	// first among equal patterns.
	var sawBig, sawSmall int = -1, -1
	for i := range rep.Findings {
		name := rep.Trace.Object(rep.Findings[i].Object).Label
		if rep.Findings[i].Pattern == pattern.UnusedAllocation {
			if name == "big_unused" {
				sawBig = i
			}
			if name == "small_unused" {
				sawSmall = i
			}
		}
	}
	if sawBig == -1 || sawSmall == -1 {
		t.Fatalf("missing UA findings: %v", rep.Findings)
	}
	if sawBig > sawSmall {
		t.Errorf("big object ranked below small one (%d vs %d)", sawBig, sawSmall)
	}
	if !rep.Findings[0].OnPeak {
		t.Error("top finding not on the memory peak")
	}
}

func TestReportJSON(t *testing.T) {
	rep := profileFixture(t)
	data, err := rep.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, key := range []string{"device", "gpu_apis", "data_objects", "peak_bytes", "findings"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("JSON missing %q", key)
		}
	}
	findings := decoded["findings"].([]any)
	if len(findings) != len(rep.Findings) {
		t.Errorf("JSON findings = %d, want %d", len(findings), len(rep.Findings))
	}
	first := findings[0].(map[string]any)
	if first["suggestion"] == "" || first["object"] == "" {
		t.Errorf("finding JSON incomplete: %v", first)
	}
	if _, ok := first["alloc_site"]; !ok {
		t.Error("finding JSON missing alloc_site")
	}
}

func TestRenderVerboseIncludesCallPaths(t *testing.T) {
	rep := profileFixture(t)
	var terse, verbose strings.Builder
	rep.Render(&terse, false)
	rep.Render(&verbose, true)
	if !strings.Contains(verbose.String(), "allocated at:") {
		t.Error("verbose render missing call paths")
	}
	if strings.Contains(terse.String(), "allocated at:") {
		t.Error("terse render leaked call paths")
	}
	// Simulator frames are cut at capture; with no workload entry on the
	// stack, the path runs out to the test harness.
	if strings.Contains(verbose.String(), "internal/gpu.") {
		t.Error("render leaked simulator frames")
	}
	if !strings.Contains(verbose.String(), "testing.tRunner") {
		t.Error("call path lost the application frames entirely")
	}
}

func TestPatternSetAndQueries(t *testing.T) {
	rep := profileFixture(t)
	set := rep.PatternSet()
	if len(set) == 0 {
		t.Fatal("empty pattern set")
	}
	// Table order is preserved.
	for i := 1; i < len(set); i++ {
		if set[i-1] >= set[i] {
			t.Errorf("pattern set out of order: %v", set)
		}
	}
	if !rep.HasPattern(pattern.UnusedAllocation) || rep.HasPattern(pattern.DeadWrite) {
		t.Errorf("HasPattern answers wrong: %v", set)
	}
	if got := rep.PatternsForObject("nonexistent"); len(got) != 0 {
		t.Errorf("unknown object patterns = %v", got)
	}
	rep.SortFindingsByObject()
	for i := 1; i < len(rep.Findings); i++ {
		if rep.Findings[i-1].Object > rep.Findings[i].Object {
			t.Error("SortFindingsByObject did not sort")
		}
	}
}

func TestWhitelistLimitsIntraObjectAnalysis(t *testing.T) {
	run := func(whitelist []string) *Report {
		dev := gpu.NewDevice(gpu.SpecTest())
		cfg := IntraObjectConfig()
		cfg.KernelWhitelist = whitelist
		p := Attach(dev, cfg)
		buf, _ := dev.Malloc(4 << 10)
		p.Annotate(buf, "buf", 4)
		// Only the first 16 elements touched: overallocation if observed.
		_ = dev.LaunchFunc(nil, "sparse", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
			for i := 0; i < 16; i++ {
				ctx.StoreU32(buf+gpu.DevicePtr(i*4), 1)
			}
		})
		_ = dev.Free(buf)
		return p.Finish()
	}
	if rep := run([]string{"sparse"}); !rep.HasPattern(pattern.Overallocation) {
		t.Error("whitelisted kernel not analyzed")
	}
	if rep := run([]string{"otherkernel"}); rep.HasPattern(pattern.Overallocation) {
		t.Error("non-whitelisted kernel produced intra-object findings")
	}
}

func TestObjectLevelConfigSkipsIntraObject(t *testing.T) {
	dev := gpu.NewDevice(gpu.SpecTest())
	p := Attach(dev, DefaultConfig()) // object-level only
	buf, _ := dev.Malloc(4 << 10)
	_ = dev.LaunchFunc(nil, "sparse", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
		ctx.StoreU32(buf, 1)
	})
	_ = dev.Free(buf)
	rep := p.Finish()
	if rep.HasPattern(pattern.Overallocation) {
		t.Error("object-level profile produced intra-object findings")
	}
	if rep.Recorder != nil {
		t.Error("recorder active at object level")
	}
}

func TestHostTraceModeEquivalence(t *testing.T) {
	run := func(mode gpu.ObjectIDMode) *Report {
		dev := gpu.NewDevice(gpu.SpecTest())
		cfg := DefaultConfig()
		cfg.ObjectIDMode = mode
		p := Attach(dev, cfg)
		a, _ := dev.Malloc(256)
		b, _ := dev.Malloc(256) // unused
		_ = dev.LaunchFunc(nil, "k", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
			ctx.StoreU32(a, 1)
		})
		_ = dev.Free(a)
		_ = dev.Free(b)
		return p.Finish()
	}
	hit := run(gpu.ObjectIDHitFlags)
	host := run(gpu.ObjectIDHostTrace)
	hs, os := hit.PatternSet(), host.PatternSet()
	if len(hs) != len(os) {
		t.Fatalf("pattern sets differ across object-ID modes: %v vs %v", hs, os)
	}
	for i := range hs {
		if hs[i] != os[i] {
			t.Errorf("pattern sets differ: %v vs %v", hs, os)
		}
	}
}

func TestSnapshotIsOnlineAndNonDestructive(t *testing.T) {
	dev := gpu.NewDevice(gpu.SpecTest())
	p := Attach(dev, IntraObjectConfig())

	a, _ := dev.Malloc(1024)
	p.Annotate(a, "a", 4)
	_ = dev.Memset(a, 0, 1024, nil)

	// Mid-run snapshot: a is live, so it is a leak *so far*.
	snap := p.Snapshot()
	apisAtSnapshot := len(snap.Trace.APIs)
	if !snap.HasPattern(pattern.MemoryLeak) {
		t.Errorf("snapshot missed the still-live object: %v", snap.PatternSet())
	}
	if dev.PatchLevel() == gpu.PatchNone {
		t.Fatal("snapshot detached the profiler")
	}

	// Collection continues after the snapshot.
	_ = dev.LaunchFunc(nil, "k", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
		for i := 0; i < 256; i++ {
			ctx.StoreU32(a+gpu.DevicePtr(i*4), 1)
		}
	})
	_ = dev.Free(a)

	final := p.Finish()
	if final.HasPattern(pattern.MemoryLeak) {
		t.Errorf("final report still reports the freed object as leaked")
	}
	if len(final.Trace.APIs) <= apisAtSnapshot {
		t.Error("post-snapshot activity was not collected")
	}
	if final.HasPattern(pattern.Overallocation) {
		t.Error("kernel coverage after the snapshot was lost (recorder state damaged)")
	}
}

func TestBFCArenaIntegration(t *testing.T) {
	dev := gpu.NewDevice(gpu.SpecTest())
	p := Attach(dev, IntraObjectConfig())
	arena := pool.NewBFC(dev, 64<<10)
	p.AttachPool(arena)

	w, err := arena.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	p.Annotate(w, "tf_weights", 4)
	unused, err := arena.Alloc(2048)
	if err != nil {
		t.Fatal(err)
	}
	p.Annotate(unused, "tf_scratch", 4)

	_ = dev.LaunchFunc(nil, "matvec", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
		for i := 0; i < 64; i++ { // sparse touch: overallocation on the tensor
			ctx.StoreU32(w+gpu.DevicePtr(i*4), uint32(i))
		}
	})
	if err := arena.Free(w); err != nil {
		t.Fatal(err)
	}
	if err := arena.Free(unused); err != nil {
		t.Fatal(err)
	}
	if err := arena.Release(); err != nil {
		t.Fatal(err)
	}

	rep := p.Finish()
	// Tensor-level findings, not arena-level.
	if got := rep.PatternsForObject("tf_scratch"); len(got) == 0 {
		t.Errorf("BFC tensor invisible to the profiler: %v", rep.PatternSet())
	}
	found := false
	for _, f := range rep.FindingsForObject("tf_weights") {
		if f.Pattern == pattern.Overallocation {
			found = true
		}
	}
	if !found {
		t.Error("intra-object analysis did not reach the BFC tensor")
	}
	for _, o := range rep.Trace.Objects {
		if o.PoolSegment && len(o.Accesses) > 0 {
			t.Error("arena segment absorbed tensor accesses")
		}
	}
}

func TestRenderTimeline(t *testing.T) {
	dev := gpu.NewDevice(gpu.SpecTest())
	p := Attach(dev, DefaultConfig())
	a, _ := dev.Malloc(1024)
	p.Annotate(a, "alpha", 4)
	b, _ := dev.Malloc(1024)
	p.Annotate(b, "beta", 4)
	_ = dev.Memset(a, 0, 1024, nil)
	_ = dev.LaunchFunc(nil, "k", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
		ctx.StoreU32(b, 1)
	})
	_ = dev.Free(a)
	_ = dev.Free(b)
	rep := p.Finish()

	var sb strings.Builder
	rep.RenderTimeline(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("timeline too short:\n%s", out)
	}
	// The API lane covers all six timestamps with kind initials.
	if !strings.Contains(lines[1], "AASKFF") {
		t.Errorf("API lane = %q, want AASKFF", lines[1])
	}
	// alpha: allocated at T0, memset at T2, freed at T4.
	var alphaRow, betaRow string
	for _, l := range lines {
		if strings.HasPrefix(l, "alpha") {
			alphaRow = l
		}
		if strings.HasPrefix(l, "beta") {
			betaRow = l
		}
	}
	if alphaRow == "" || betaRow == "" {
		t.Fatalf("object rows missing:\n%s", out)
	}
	// alpha: alloc T0, memset T2, free T4 -> "[-x-] "; beta: alloc T1,
	// kernel T3, free T5 -> " [-x-]".
	if !strings.Contains(alphaRow, "[-x-] ") {
		t.Errorf("alpha row = %q, want [-x-] at T0..T4", alphaRow)
	}
	if !strings.Contains(betaRow, " [-x-]") {
		t.Errorf("beta row = %q, want [-x-] at T1..T5", betaRow)
	}
	if !strings.Contains(out, "x access") {
		t.Error("legend missing")
	}
}

func TestCompare(t *testing.T) {
	record := func(withBug bool) *Report {
		dev := gpu.NewDevice(gpu.SpecTest())
		p := Attach(dev, DefaultConfig())
		a, _ := dev.Malloc(4096)
		p.Annotate(a, "a", 4)
		var waste gpu.DevicePtr
		if withBug {
			waste, _ = dev.Malloc(8192) // unused + leaked in the baseline
			p.Annotate(waste, "waste", 4)
		}
		_ = dev.Memset(a, 0, 4096, nil)
		_ = dev.Free(a)
		return p.Finish()
	}
	base := record(true)
	cand := record(false)

	c := Compare(base, cand)
	if c.BaselinePeak != 12288 || c.CandidatePeak != 4096 {
		t.Fatalf("peaks = %d -> %d", c.BaselinePeak, c.CandidatePeak)
	}
	if c.PeakReductionPct < 66 || c.PeakReductionPct > 67 {
		t.Errorf("reduction = %g", c.PeakReductionPct)
	}
	// waste's UA and ML disappear, and so does the EA on "a" that waste's
	// allocation had induced.
	if c.FixedCount != 3 || c.RemainingCount != 0 {
		t.Errorf("fixed/remaining = %d/%d (deltas %+v)", c.FixedCount, c.RemainingCount, c.Deltas)
	}
	if len(c.Introduced) != 0 {
		t.Errorf("introduced = %+v", c.Introduced)
	}
	var sb strings.Builder
	c.Render(&sb)
	if !strings.Contains(sb.String(), "3 finding(s) eliminated") {
		t.Errorf("render:\n%s", sb.String())
	}

	// Reversed comparison: the findings are introductions.
	rev := Compare(cand, base)
	if len(rev.Introduced) != 3 || rev.PeakReductionPct >= 0 {
		t.Errorf("reverse comparison = %+v", rev)
	}
}
