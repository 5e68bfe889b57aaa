package profile_test

import (
	"bytes"
	"strings"
	"testing"

	"drgpum/internal/callpath"
	"drgpum/internal/core"
	"drgpum/internal/gpu"
	"drgpum/internal/pattern"
	"drgpum/internal/profile"
)

// record builds a report with multi-stream structure and several patterns.
func record(t *testing.T) *core.Report {
	t.Helper()
	dev := gpu.NewDevice(gpu.SpecTest())
	prof := core.Attach(dev, core.DefaultConfig())
	s1 := dev.CreateStream()

	a, _ := dev.Malloc(1024)
	prof.Annotate(a, "alpha", 4)
	b, _ := dev.Malloc(2048) // unused + leaked
	prof.Annotate(b, "beta", 4)

	_ = dev.Memset(a, 0, 1024, nil)
	_ = dev.MemcpyHtoD(a, make([]byte, 1024), s1)
	_ = dev.LaunchFunc(s1, "k", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
		_ = ctx.LoadU32(a)
	})
	dev.Synchronize()
	_ = dev.Free(a)
	return prof.Finish()
}

func TestProfileRoundtrip(t *testing.T) {
	rep := record(t)

	var buf bytes.Buffer
	if err := rep.SaveProfile(&buf); err != nil {
		t.Fatal(err)
	}

	rep2, err := core.AnalyzeProfile(bytes.NewReader(buf.Bytes()), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Structural identity.
	if len(rep2.Trace.APIs) != len(rep.Trace.APIs) || len(rep2.Trace.Objects) != len(rep.Trace.Objects) {
		t.Fatalf("loaded trace shape: %d/%d APIs, %d/%d objects",
			len(rep2.Trace.APIs), len(rep.Trace.APIs), len(rep2.Trace.Objects), len(rep.Trace.Objects))
	}
	for i := range rep.Trace.APIs {
		orig, got := rep.Trace.APIs[i], rep2.Trace.APIs[i]
		if got.Rec.Kind != orig.Rec.Kind || got.Rec.Stream != orig.Rec.Stream ||
			got.Rec.SeqInStream != orig.Rec.SeqInStream || got.Topo != orig.Topo {
			t.Errorf("API %d roundtrip: %+v vs %+v", i, got.Rec, orig.Rec)
		}
		if got.Label() != orig.Label() {
			t.Errorf("API %d label %q vs %q", i, got.Label(), orig.Label())
		}
	}
	for i := range rep.Trace.Objects {
		orig, got := rep.Trace.Objects[i], rep2.Trace.Objects[i]
		if got.Label != orig.Label || got.Size != orig.Size || got.FreeAPI != orig.FreeAPI {
			t.Errorf("object %d roundtrip: %+v vs %+v", i, got, orig)
		}
		if len(got.Accesses) != len(orig.Accesses) {
			t.Fatalf("object %d accesses: %d vs %d", i, len(got.Accesses), len(orig.Accesses))
		}
		for j := range orig.Accesses {
			if got.Accesses[j] != orig.Accesses[j] {
				t.Errorf("object %d access %d: %+v vs %+v", i, j, got.Accesses[j], orig.Accesses[j])
			}
		}
	}

	// Detection identity: same object-level pattern sets.
	ps1, ps2 := rep.PatternSet(), rep2.PatternSet()
	if len(ps1) != len(ps2) {
		t.Fatalf("pattern sets differ: %v vs %v", ps1, ps2)
	}
	for i := range ps1 {
		if ps1[i] != ps2[i] {
			t.Errorf("pattern sets differ: %v vs %v", ps1, ps2)
		}
	}

	// Call paths survive as resolved frames.
	o := rep2.Trace.Objects[0]
	if o.AllocPath == 0 {
		t.Fatal("loaded object lost its alloc path")
	}
	path := callpath.Format(rep2.Trace.Unwinder, o.AllocPath)
	if !strings.Contains(path, "profile_test.go") && !strings.Contains(path, "record") {
		t.Errorf("loaded call path unusable:\n%s", path)
	}
	if rep2.Elapsed != rep.Elapsed || rep2.MemStats.Peak != rep.MemStats.Peak {
		t.Errorf("metadata: cycles %d/%d peak %d/%d",
			rep2.Elapsed, rep.Elapsed, rep2.MemStats.Peak, rep.MemStats.Peak)
	}
}

// TestKernelCostsRoundtrip saves a profile in which two kernels touch one
// object, the later one with the smaller name, and checks that the loaded
// object carries each kernel's cost and that the re-analysis names the
// same dominant kernel.
func TestKernelCostsRoundtrip(t *testing.T) {
	dev := gpu.NewDevice(gpu.SpecTest())
	prof := core.Attach(dev, core.DefaultConfig())
	a, _ := dev.Malloc(64 << 10)
	prof.Annotate(a, "strided", 4)
	// Strided reads waste most of each sector; k_zeta reads every 8th
	// element, k_alpha every 16th of the first half.
	read := func(name string, n, stride int) {
		_ = dev.LaunchFunc(nil, name, gpu.Dim1(1), gpu.Dim1(32), func(ctx *gpu.ExecContext) {
			for i := 0; i < n; i += stride {
				_ = ctx.LoadU32(a + gpu.DevicePtr(4*i))
			}
		})
	}
	read("k_zeta", 16<<10, 8)
	read("k_alpha", 8<<10, 16)
	_ = dev.Free(a)
	rep := prof.Finish()

	var buf bytes.Buffer
	if err := rep.SaveProfile(&buf); err != nil {
		t.Fatal(err)
	}
	rep2, err := core.AnalyzeProfile(bytes.NewReader(buf.Bytes()), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	orig, got := rep.Trace.Objects[0], rep2.Trace.Objects[0]
	if len(orig.CostByKernel) != 2 || orig.CostByKernel[0].Kernel != "k_zeta" {
		t.Fatalf("live per-kernel costs %+v, want k_zeta then k_alpha", orig.CostByKernel)
	}
	if len(got.CostByKernel) != 2 {
		t.Fatalf("loaded per-kernel costs %+v, want two kernels", got.CostByKernel)
	}
	for _, want := range orig.CostByKernel {
		found := false
		for _, kc := range got.CostByKernel {
			if kc.Kernel == want.Kernel {
				found = true
				if kc.Cost != want.Cost {
					t.Errorf("kernel %s: loaded cost %+v, live %+v", want.Kernel, kc.Cost, want.Cost)
				}
			}
		}
		if !found {
			t.Errorf("kernel %s lost in the saved profile", want.Kernel)
		}
	}
	uc := func(r *core.Report) []string {
		var ks []string
		for _, f := range r.Findings {
			if f.Pattern == pattern.UncoalescedAccess {
				ks = append(ks, f.AtKernel)
			}
		}
		return ks
	}
	if live, loaded := uc(rep), uc(rep2); len(live) != 1 || len(loaded) != 1 || live[0] != loaded[0] {
		t.Errorf("uncoalesced-access kernels: live %v, loaded %v, want one and the same", live, loaded)
	}
}

func TestReanalysisWithDifferentThresholds(t *testing.T) {
	// A program with a 3-API idle gap: invisible at the default bar (4),
	// reported when re-analyzed at 2 — without re-running the program.
	dev := gpu.NewDevice(gpu.SpecTest())
	prof := core.Attach(dev, core.DefaultConfig())
	p, _ := dev.Malloc(256)
	o, _ := dev.Malloc(4096)
	touch := func(ptr gpu.DevicePtr) {
		_ = dev.LaunchFunc(nil, "t", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
			ctx.StoreU32(ptr, 1)
		})
	}
	touch(p)
	touch(o)
	touch(o)
	touch(o)
	touch(p)
	_ = dev.Free(p)
	_ = dev.Free(o)
	rep := prof.Finish()

	var buf bytes.Buffer
	if err := rep.SaveProfile(&buf); err != nil {
		t.Fatal(err)
	}

	strict := core.DefaultConfig()
	rep4, err := core.AnalyzeProfile(bytes.NewReader(buf.Bytes()), strict)
	if err != nil {
		t.Fatal(err)
	}
	if rep4.HasPattern(pattern.TemporaryIdleness) {
		t.Errorf("TI at threshold 4 on a 3-API gap: %v", rep4.PatternSet())
	}

	loose := core.DefaultConfig()
	loose.ObjLevel.IdlenessThreshold = 2
	rep2, err := core.AnalyzeProfile(bytes.NewReader(buf.Bytes()), loose)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.HasPattern(pattern.TemporaryIdleness) {
		t.Errorf("re-analysis at threshold 2 missed the gap: %v", rep2.PatternSet())
	}
}

func TestLoadRejectsCorruptProfiles(t *testing.T) {
	if _, _, err := profile.Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, _, err := profile.Load(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("future version accepted")
	}
	if _, _, err := profile.Load(strings.NewReader(`{"version": 1}`)); err == nil {
		t.Error("version-1 profile accepted")
	}
	const spec = `"sector_bytes":32,"line_bytes":128,"warp_size":32,"l1_sets":64,"l1_ways":4,` +
		`"l2_sets":256,"l2_ways":8,"l1_hit_cycles":36,"l2_hit_cycles":146,"dram_cycles":440,` +
		`"tlb_entries":16,"page_bytes":65536,"tlb_miss_cycles":220,"copy_bytes_per_cycle":16`
	for _, c := range []struct{ name, doc string }{
		{"dangling API reference",
			`{"version":2,"apis":[],"objects":[{"ptr":1,"size":8,"alloc_api":5,"free_api":-1}]}`},
		{"dangling access reference",
			`{"version":2,"apis":[{"index":0,"kind":0,"name":"cudaMalloc"}],` +
				`"objects":[{"ptr":1,"size":8,"alloc_api":0,"free_api":-1,"accesses":[{"api":7,"kind":4}]}]}`},
		{"allocation by a kernel",
			`{"version":2,"apis":[{"index":0,"kind":4,"name":"k"}],` +
				`"objects":[{"ptr":1,"size":8,"alloc_api":0,"free_api":-1}]}`},
		{"free by a copy",
			`{"version":2,"apis":[{"index":0,"kind":0,"name":"cudaMalloc"},{"index":1,"kind":2,"name":"cudaMemcpy"}],` +
				`"objects":[{"ptr":1,"size":8,"alloc_api":0,"free_api":1}]}`},
		{"shared allocation API",
			`{"version":2,"apis":[{"index":0,"kind":0,"name":"cudaMalloc"}],` +
				`"objects":[{"ptr":1,"size":8,"alloc_api":0,"free_api":-1},{"ptr":9,"size":8,"alloc_api":0,"free_api":-1}]}`},
		{"shared free API",
			`{"version":2,"apis":[{"index":0,"kind":0,"name":"cudaMalloc"},{"index":1,"kind":0,"name":"cudaMalloc"},` +
				`{"index":2,"kind":1,"name":"cudaFree"}],"objects":[{"ptr":1,"size":8,"alloc_api":0,"free_api":2},` +
				`{"ptr":9,"size":8,"alloc_api":1,"free_api":2}]}`},
		{"access on a lifetime API",
			`{"version":2,"apis":[{"index":0,"kind":0,"name":"cudaMalloc"},{"index":1,"kind":0,"name":"cudaMalloc"}],` +
				`"objects":[{"ptr":1,"size":8,"alloc_api":0,"free_api":-1,"accesses":[{"api":1,"kind":0,"w":true}]}]}`},
		{"access of another API's kind",
			`{"version":2,"apis":[{"index":0,"kind":0,"name":"cudaMalloc"},{"index":1,"kind":4,"name":"k"}],` +
				`"objects":[{"ptr":1,"size":8,"alloc_api":0,"free_api":-1,"accesses":[{"api":1,"kind":3,"w":true}]}]}`},
		{"zero cost-model latency",
			`{"version":2,"cost_model":{` + strings.Replace(spec, `"dram_cycles":440`, `"dram_cycles":0`, 1) + `}}`},
		{"non-power-of-two sector",
			`{"version":2,"cost_model":{` + strings.Replace(spec, `"sector_bytes":32`, `"sector_bytes":24`, 1) + `}}`},
		{"zero L2 sets",
			`{"version":2,"cost_model":{` + strings.Replace(spec, `"l2_sets":256`, `"l2_sets":0`, 1) + `}}`},
		{"line smaller than sector",
			`{"version":2,"cost_model":{` + strings.Replace(spec, `"line_bytes":128`, `"line_bytes":16`, 1) + `}}`},
	} {
		if _, _, err := profile.Load(strings.NewReader(c.doc)); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// The valid spec those documents perturb loads.
	if _, meta, err := profile.Load(strings.NewReader(`{"version":2,"cost_model":{` + spec + `}}`)); err != nil || meta.CostModel == nil {
		t.Errorf("valid cost-model spec: meta %+v, err %v", meta, err)
	}
}

func TestSavedProfileRenders(t *testing.T) {
	rep := record(t)
	var buf bytes.Buffer
	if err := rep.SaveProfile(&buf); err != nil {
		t.Fatal(err)
	}
	rep2, err := core.AnalyzeProfile(&buf, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	rep2.Render(&out, true) // verbose: exercises the frozen resolver
	if !strings.Contains(out.String(), "alpha") || !strings.Contains(out.String(), "beta") {
		t.Errorf("rendered loaded report missing objects:\n%s", out.String())
	}
}
