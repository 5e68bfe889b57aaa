package baselines

import (
	"strings"
	"testing"

	"drgpum/internal/gpu"
	"drgpum/internal/pattern"
)

// wire attaches ValueExpert to a fresh device at PatchFull.
func wire() (*gpu.Device, *ValueExpert) {
	dev := gpu.NewDevice(gpu.SpecTest())
	ve := NewValueExpert()
	dev.AddHook(ve)
	dev.SetPatchLevel(gpu.PatchFull)
	return dev, ve
}

func TestValueExpertSilentStores(t *testing.T) {
	dev, ve := wire()
	p, _ := dev.Malloc(64)
	_ = dev.LaunchFunc(nil, "silent", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
		ctx.StoreU32(p, 7)
		ctx.StoreU32(p, 7) // silent
		ctx.StoreU32(p, 7) // silent
		ctx.StoreU32(p, 8) // value changes: not silent
		ctx.StoreU32(p+4, 7)
	})
	_ = dev.Free(p)

	reps := ve.Reports()
	if len(reps) != 1 {
		t.Fatalf("reports = %+v", reps)
	}
	r := reps[0]
	if r.Stores != 5 || r.SilentStores != 2 {
		t.Errorf("stores=%d silent=%d, want 5/2", r.Stores, r.SilentStores)
	}
	if r.SingleValued {
		t.Error("object with two distinct values reported single-valued")
	}
	if !strings.Contains(ve.Summary(), "2 silent store(s)") {
		t.Errorf("summary = %q", ve.Summary())
	}
}

func TestValueExpertSingleValued(t *testing.T) {
	dev, ve := wire()
	p, _ := dev.Malloc(64)
	_ = dev.LaunchFunc(nil, "zeros", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
		for i := 0; i < 16; i++ {
			ctx.StoreU32(p+gpu.DevicePtr(i*4), 0)
		}
	})
	_ = dev.Free(p)
	if r := ve.Reports()[0]; !r.SingleValued {
		t.Errorf("zero-filled object not single-valued: %+v", r)
	}
}

func TestValueExpertUnusedAllocationReasoning(t *testing.T) {
	dev, ve := wire()
	unused, _ := dev.Malloc(128)
	used, _ := dev.Malloc(64)
	_ = dev.Memset(used, 0, 64, nil)
	_ = dev.Free(unused)
	_ = dev.Free(used)

	pats := ve.DetectedPatterns()
	if len(pats) != 1 || pats[0] != pattern.UnusedAllocation {
		t.Errorf("patterns = %v (an allocation with no value activity lets the user infer UA)", pats)
	}
	// Per-report flags.
	var accessed, total int
	for _, r := range ve.Reports() {
		total++
		if r.Accessed {
			accessed++
		}
	}
	if total != 2 || accessed != 1 {
		t.Errorf("reports: %d total, %d accessed", total, accessed)
	}
}

func TestValueExpertAllUsedNoPattern(t *testing.T) {
	dev, ve := wire()
	p, _ := dev.Malloc(64)
	_ = dev.Memset(p, 0, 64, nil)
	_ = dev.Free(p)
	if pats := ve.DetectedPatterns(); len(pats) != 0 {
		t.Errorf("patterns = %v", pats)
	}
}

// TestToolsMissValueAgnosticPatterns is the Table 5 negative space: a
// program riddled with DrGPUM-detectable inefficiencies that ValueExpert
// does not flag.
func TestToolsMissValueAgnosticPatterns(t *testing.T) {
	dev, ve := wire()
	// Early allocation + late deallocation + dead write + idleness, but
	// every buffer is used and freed: nothing for the value profiler.
	early, _ := dev.Malloc(256)
	other, _ := dev.Malloc(256)
	_ = dev.Memset(other, 0, 256, nil)
	_ = dev.MemcpyHtoD(other, make([]byte, 256), nil) // dead write pair
	_ = dev.Memset(early, 1, 256, nil)
	_ = dev.Free(other)
	_ = dev.Free(early)

	if pats := ve.DetectedPatterns(); len(pats) != 0 {
		t.Errorf("ValueExpert claimed %v", pats)
	}
}
