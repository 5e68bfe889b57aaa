package intraobj

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"drgpum/internal/gpu"
	"drgpum/internal/pattern"
	"drgpum/internal/trace"
)

// fixture wires a device, collector and recorder at PatchFull.
func fixture(capacity uint64) (*gpu.Device, *trace.Collector, *Recorder) {
	dev := gpu.NewDevice(gpu.SpecTest())
	c := trace.NewCollector()
	r := NewRecorder(capacity)
	r.LiveBytes = func() uint64 { return dev.MemStats().InUse }
	c.SetSink(r)
	dev.SetLiveRangesProvider(c.LiveTable)
	dev.AddHook(c)
	dev.SetPatchLevel(gpu.PatchFull)
	return dev, c, r
}

func findingsOf(fs []pattern.Finding, p pattern.Pattern) []pattern.Finding {
	var out []pattern.Finding
	for _, f := range fs {
		if f.Pattern == p {
			out = append(out, f)
		}
	}
	return out
}

func TestOverallocationDetection(t *testing.T) {
	dev, _, r := fixture(0)
	p, _ := dev.Malloc(4096) // 1024 u32 elements
	_ = dev.LaunchFunc(nil, "front", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
		for i := 0; i < 100; i++ { // touch <10% of the elements, contiguously
			ctx.StoreU32(p+gpu.DevicePtr(i*4), 1)
		}
	})
	fs := r.Detect(DefaultConfig())
	oa := findingsOf(fs, pattern.Overallocation)
	if len(oa) != 1 {
		t.Fatalf("OA = %+v", oa)
	}
	f := oa[0]
	if math.Abs(f.AccessedPct-100.0/1024*100) > 0.01 {
		t.Errorf("accessed pct = %g", f.AccessedPct)
	}
	if f.FragmentationPct != 0 {
		t.Errorf("fragmentation = %g, want 0 (one unaccessed tail)", f.FragmentationPct)
	}
	if f.WastedBytes != (1024-100)*4 {
		t.Errorf("wasted = %d", f.WastedBytes)
	}
}

func TestOverallocationSuppressedByFragmentation(t *testing.T) {
	dev, _, r := fixture(0)
	p, _ := dev.Malloc(4096)
	_ = dev.LaunchFunc(nil, "spread", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
		for i := 0; i < 1024; i += 2 { // checkerboard: low coverage, max frag
			ctx.StoreU32(p+gpu.DevicePtr(i*4), 1)
		}
	})
	fs := r.Detect(DefaultConfig())
	if oa := findingsOf(fs, pattern.Overallocation); len(oa) != 0 {
		t.Errorf("OA reported despite scattered unaccessed space: %+v", oa)
	}
}

func TestOverallocationNotReportedForFullCoverage(t *testing.T) {
	dev, _, r := fixture(0)
	p, _ := dev.Malloc(1024)
	_ = dev.LaunchFunc(nil, "all", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
		for i := 0; i < 256; i++ {
			ctx.StoreU32(p+gpu.DevicePtr(i*4), 1)
		}
	})
	fs := r.Detect(DefaultConfig())
	if oa := findingsOf(fs, pattern.Overallocation); len(oa) != 0 {
		t.Errorf("OA on fully covered object: %+v", oa)
	}
}

func TestStructuredAccessDetection(t *testing.T) {
	dev, _, r := fixture(0)
	p, _ := dev.Malloc(4096)
	// Four kernel instances, each touching one disjoint contiguous slice.
	for k := 0; k < 4; k++ {
		base := k * 256
		_ = dev.LaunchFunc(nil, "sliced", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
			for i := 0; i < 256; i++ {
				ctx.StoreU32(p+gpu.DevicePtr((base+i)*4), 1)
			}
		})
	}
	fs := r.Detect(DefaultConfig())
	sa := findingsOf(fs, pattern.StructuredAccess)
	if len(sa) != 1 {
		t.Fatalf("SA = %+v", sa)
	}
	// Saved bytes: whole object minus one slice.
	if sa[0].WastedBytes != 4096-1024 {
		t.Errorf("SA savings = %d, want 3072", sa[0].WastedBytes)
	}
}

func TestStructuredAccessRejectedOnOverlap(t *testing.T) {
	dev, _, r := fixture(0)
	p, _ := dev.Malloc(4096)
	for k := 0; k < 3; k++ {
		_ = dev.LaunchFunc(nil, "same", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
			ctx.StoreU32(p, 1) // every instance touches element 0
		})
	}
	fs := r.Detect(DefaultConfig())
	if sa := findingsOf(fs, pattern.StructuredAccess); len(sa) != 0 {
		t.Errorf("SA on overlapping instances: %+v", sa)
	}
}

func TestStructuredAccessRequiresContiguousSlices(t *testing.T) {
	dev, _, r := fixture(0)
	p, _ := dev.Malloc(4096)
	// Disjoint but strided (column-like) access sets: not "slices".
	for k := 0; k < 2; k++ {
		off := k
		_ = dev.LaunchFunc(nil, "strided", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
			for i := 0; i < 512; i += 2 {
				ctx.StoreU32(p+gpu.DevicePtr((i+off)*4), 1)
			}
		})
	}
	fs := r.Detect(DefaultConfig())
	if sa := findingsOf(fs, pattern.StructuredAccess); len(sa) != 0 {
		t.Errorf("SA on strided access sets: %+v", sa)
	}
}

func TestStructuredAccessRequiresTwoAPIs(t *testing.T) {
	dev, _, r := fixture(0)
	p, _ := dev.Malloc(4096)
	_ = dev.LaunchFunc(nil, "once", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
		ctx.StoreU32(p, 1)
	})
	fs := r.Detect(DefaultConfig())
	if sa := findingsOf(fs, pattern.StructuredAccess); len(sa) != 0 {
		t.Errorf("SA with a single touching API: %+v", sa)
	}
}

func TestNUAFDeterministicSkew(t *testing.T) {
	dev, _, r := fixture(0)
	p, _ := dev.Malloc(1024) // 256 elements
	_ = dev.LaunchFunc(nil, "skew", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
		// Element i accessed i+1 times: strong deterministic skew.
		for i := 0; i < 256; i++ {
			for k := 0; k <= i; k++ {
				_ = ctx.LoadU32(p + gpu.DevicePtr(i*4))
			}
		}
	})
	fs := r.Detect(DefaultConfig())
	nuaf := findingsOf(fs, pattern.NonUniformAccessFrequency)
	if len(nuaf) != 1 {
		t.Fatalf("NUAF = %+v", nuaf)
	}
	// CV of 1..256 is ~57.7% (the paper's GramSchmidt-style skew).
	if nuaf[0].VariationPct < 40 || nuaf[0].VariationPct > 70 {
		t.Errorf("variation = %g, want ~57.7", nuaf[0].VariationPct)
	}
	if nuaf[0].AtKernel != "skew" {
		t.Errorf("kernel = %q", nuaf[0].AtKernel)
	}
}

func TestNUAFSuppressedForUniformAccess(t *testing.T) {
	dev, _, r := fixture(0)
	p, _ := dev.Malloc(1024)
	_ = dev.LaunchFunc(nil, "uniform", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
		for rep := 0; rep < 4; rep++ {
			for i := 0; i < 256; i++ {
				_ = ctx.LoadU32(p + gpu.DevicePtr(i*4))
			}
		}
	})
	fs := r.Detect(DefaultConfig())
	if nuaf := findingsOf(fs, pattern.NonUniformAccessFrequency); len(nuaf) != 0 {
		t.Errorf("NUAF on uniform access: %+v", nuaf)
	}
}

func TestNUAFShotNoiseCorrection(t *testing.T) {
	// Poisson-like counts with mean lambda have CV ~ 1/sqrt(lambda); the
	// corrected metric must treat that as uniform.
	dev, _, r := fixture(0)
	p, _ := dev.Malloc(1024)
	rng := uint32(12345)
	_ = dev.LaunchFunc(nil, "mc", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
		for draw := 0; draw < 256*10; draw++ { // lambda = 10
			rng ^= rng << 13
			rng ^= rng >> 17
			rng ^= rng << 5
			i := int(rng % 256)
			_ = ctx.LoadU32(p + gpu.DevicePtr(i*4))
		}
	})
	fs := r.Detect(DefaultConfig())
	if nuaf := findingsOf(fs, pattern.NonUniformAccessFrequency); len(nuaf) != 0 {
		t.Errorf("NUAF on Monte Carlo sampling noise: %+v", nuaf)
	}
}

func TestNUAFStructuredUsesSliceTotals(t *testing.T) {
	dev, _, r := fixture(0)
	p, _ := dev.Malloc(4096) // 1024 elements, 4 slices of 256
	// Slice k accessed (k+1)*256 times: uniform per element within a
	// slice, strongly skewed across slices — only slice bucketing sees it.
	for k := 0; k < 4; k++ {
		base, reps := k*256, k+1
		_ = dev.LaunchFunc(nil, "slices", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
			for rep := 0; rep < reps; rep++ {
				for i := 0; i < 256; i++ {
					_ = ctx.LoadU32(p + gpu.DevicePtr((base+i)*4))
				}
			}
		})
	}
	fs := r.Detect(DefaultConfig())
	nuaf := findingsOf(fs, pattern.NonUniformAccessFrequency)
	if len(nuaf) != 1 {
		t.Fatalf("NUAF = %+v", nuaf)
	}
	// CV of totals {256, 512, 768, 1024} = sqrt(5)/... ~44.7%.
	if nuaf[0].VariationPct < 30 || nuaf[0].VariationPct > 60 {
		t.Errorf("slice-level variation = %g", nuaf[0].VariationPct)
	}
	// The same object is also structured.
	if sa := findingsOf(fs, pattern.StructuredAccess); len(sa) != 1 {
		t.Errorf("SA = %+v", sa)
	}
}

func TestAdaptiveModeSelection(t *testing.T) {
	// Tiny capacity: access maps cannot fit next to live objects, so the
	// recorder must fall back to host-side updates — with identical
	// analysis results.
	results := map[string][]pattern.Finding{}
	stats := map[string]ModeStats{}
	for name, capacity := range map[string]uint64{"device": 0, "host": 1} {
		dev, _, r := fixture(capacity)
		p, _ := dev.Malloc(4096)
		_ = dev.LaunchFunc(nil, "front", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
			for i := 0; i < 64; i++ {
				ctx.StoreU32(p+gpu.DevicePtr(i*4), 1)
			}
		})
		results[name] = r.Detect(DefaultConfig())
		stats[name] = r.Stats()
	}
	if stats["device"].DeviceKernels != 1 || stats["device"].HostKernels != 0 {
		t.Errorf("unbounded capacity stats = %+v", stats["device"])
	}
	if stats["host"].HostKernels != 1 || stats["host"].DeviceKernels != 0 {
		t.Errorf("tiny capacity stats = %+v", stats["host"])
	}
	if len(results["device"]) != len(results["host"]) {
		t.Fatalf("mode changed the findings: %d vs %d", len(results["device"]), len(results["host"]))
	}
	for i := range results["device"] {
		d, h := results["device"][i], results["host"][i]
		if d.Pattern != h.Pattern || d.AccessedPct != h.AccessedPct {
			t.Errorf("finding %d differs across modes: %+v vs %+v", i, d, h)
		}
	}
}

func TestFrequencyHistogram(t *testing.T) {
	dev, _, r := fixture(0)
	p, _ := dev.Malloc(1024) // 256 elements
	_ = dev.LaunchFunc(nil, "h", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
		for i := 0; i < 128; i++ { // first half twice as hot
			_ = ctx.LoadU32(p + gpu.DevicePtr(i*4))
			_ = ctx.LoadU32(p + gpu.DevicePtr(i*4))
		}
		for i := 128; i < 256; i++ {
			_ = ctx.LoadU32(p + gpu.DevicePtr(i*4))
		}
	})
	r.Flush()
	h := r.FrequencyHistogram(0)
	if len(h) != histBuckets {
		t.Fatalf("histogram = %v, want %d buckets", h, histBuckets)
	}
	for b, c := range h {
		want := uint64(8) // 8 elements per bucket, read once each
		if b < histBuckets/2 {
			want = 16 // the hot half, read twice
		}
		if c != want {
			t.Errorf("bucket %d = %d, want %d", b, c, want)
		}
	}
	if got, ok := r.AccessedPctOf(0); !ok || got != 100 {
		t.Errorf("AccessedPctOf = %g, %v", got, ok)
	}
	if _, ok := r.AccessedPctOf(99); ok {
		t.Error("AccessedPctOf resolved an unknown object")
	}
}

// TestSealReusesMaps runs a streamed training loop: a sealed activation's
// maps serve the next activation, which is never larger than the first,
// so after warm-up an epoch allocates less than one activation's
// frequency array; and sealing the weights, the last open object, drops
// the spare.
func TestSealReusesMaps(t *testing.T) {
	const elems, warm, epochs = 4096, 4, 64
	objs := streamObjects(warm+epochs, elems)
	r := NewRecorder(0)
	rec := &gpu.APIRecord{Kind: gpu.APIKernel, Name: "k", Instrumented: true}
	batch := make([]gpu.MemAccess, 2)
	for k := 0; k < warm; k++ {
		streamEpoch(r, objs, rec, batch, k)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := warm; k < warm+epochs; k++ {
		streamEpoch(r, objs, rec, batch, k)
	}
	runtime.ReadMemStats(&after)
	// The smallest activation has elems/2+1 elements.
	freqBytes := uint64(4 * (elems/2 + 2))
	if perEpoch := (after.TotalAlloc - before.TotalAlloc) / epochs; perEpoch >= freqBytes {
		t.Errorf("an epoch allocated %d bytes, no less than a %d-byte frequency array", perEpoch, freqBytes)
	}
	if r.spare.freqDiff == nil {
		t.Error("no spare while the weights are open")
	}
	r.Seal(0)
	if r.unsealed != 0 || r.spare.freqDiff != nil || r.spare.total != nil || r.spare.touched != nil {
		t.Errorf("after the last seal: %d unsealed, spare %d slots", r.unsealed, cap(r.spare.freqDiff))
	}
}

// TestTable2GuidanceMatrix checks the paper's Table 2 advice quadrants.
func TestTable2GuidanceMatrix(t *testing.T) {
	cases := []struct {
		accessed, frag float64
		want           string
	}{
		{10, 10, "Easy to optimize"},
		{90, 10, "little benefit"},
		{10, 95, "Difficult to optimize"},
		{90, 95, "No action"},
	}
	for _, c := range cases {
		got := pattern.OverallocationGuidance(c.accessed, c.frag)
		if got == "" || !strings.Contains(got, c.want) {
			t.Errorf("guidance(%g, %g) = %q, want mention of %q", c.accessed, c.frag, got, c.want)
		}
	}
}
