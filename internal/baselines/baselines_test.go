package baselines

import (
	"slices"
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
}

// TestValueExpertKernelAccesses checks that a kernel's global loads and
// stores mark their allocation accessed, and shared-memory accesses mark
// none.
func TestValueExpertKernelAccesses(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func(ctx *gpu.ExecContext, p gpu.DevicePtr)
		want []pattern.Pattern
	}{
		{"global load", func(ctx *gpu.ExecContext, p gpu.DevicePtr) { _ = ctx.LoadU32(p + 8) }, nil},
		{"global store", func(ctx *gpu.ExecContext, p gpu.DevicePtr) { ctx.StoreF32(p+8, 1) }, nil},
		{"shared only", func(ctx *gpu.ExecContext, _ gpu.DevicePtr) {
			off := ctx.SharedAlloc(8)
			ctx.SharedStoreF64(off, 1)
			_ = ctx.SharedLoadF64(off)
		}, []pattern.Pattern{pattern.UnusedAllocation}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev, ve := wire()
			p, _ := dev.Malloc(64)
			_ = dev.LaunchFunc(nil, "k", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) { tc.body(ctx, p) })
			_ = dev.Free(p)
			if pats := ve.DetectedPatterns(); !slices.Equal(pats, tc.want) {
				t.Errorf("patterns = %v, want %v", pats, tc.want)
			}
		})
	}
}

// TestValueExpertFreedRangeInsideLiveAllocation stores into a live
// allocation past the base of a freed one that it now covers: the freed
// allocation must not capture the store, or the live one reads as unused.
func TestValueExpertFreedRangeInsideLiveAllocation(t *testing.T) {
	dev, ve := wire()
	a, _ := dev.Malloc(64)
	b, _ := dev.Malloc(64)
	_ = dev.Memset(a, 0, 64, nil)
	_ = dev.Memset(b, 0, 64, nil)
	_ = dev.Free(a)
	_ = dev.Free(b)
	x, _ := dev.Malloc(1024)
	if x != a || b < x || b+64 > x+1024 {
		t.Fatalf("layout: a=%#x b=%#x x=%#x; want x at a's base, covering b", a, b, x)
	}
	_ = dev.LaunchFunc(nil, "k", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) { ctx.StoreU32(x+512, 1) })
	if pats := ve.DetectedPatterns(); len(pats) != 0 {
		t.Errorf("patterns = %v, want none (every allocation was touched)", pats)
	}
}

// TestValueExpertAllUsedNoPattern touches one allocation each by a
// memset, a copy in and a copy out: each counts as value activity.
func TestValueExpertAllUsedNoPattern(t *testing.T) {
	dev, ve := wire()
	set, _ := dev.Malloc(64)
	in, _ := dev.Malloc(64)
	out, _ := dev.Malloc(64)
	_ = dev.Memset(set, 0, 64, nil)
	_ = dev.MemcpyHtoD(in, make([]byte, 64), nil)
	_ = dev.MemcpyDtoH(make([]byte, 64), out, nil)
	for _, p := range []gpu.DevicePtr{set, in, out} {
		_ = dev.Free(p)
	}
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
