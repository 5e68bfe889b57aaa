package gpu

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"drgpum/internal/costmodel"
)

// TestSetCostModelRejectsBadGeometry pins that SetCostModel refuses, with
// a panic naming the field, every geometry the cost model's shift-and-
// mask arithmetic cannot represent, and leaves the device unchanged.
func TestSetCostModelRejectsBadGeometry(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*costmodel.Spec)
		want string // panic message substring; "" means accepted
	}{
		{"derived", func(*costmodel.Spec) {}, ""},
		{"one set, one way", func(s *costmodel.Spec) { s.L1Sets, s.L1Ways, s.L2Sets, s.L2Ways = 1, 1, 1, 1 }, ""},
		{"line equals sector", func(s *costmodel.Spec) { s.LineBytes = 32 }, ""},
		{"sector not a power of two", func(s *costmodel.Spec) { s.SectorBytes = 24 }, "SectorBytes 24 is not a power of two"},
		{"line not a power of two", func(s *costmodel.Spec) { s.LineBytes = 96 }, "LineBytes 96 is not a power of two"},
		{"line zero", func(s *costmodel.Spec) { s.LineBytes = 0 }, "LineBytes 0 is not a power of two"},
		{"line below sector", func(s *costmodel.Spec) { s.LineBytes = 16 }, "LineBytes 16 is smaller than SectorBytes 32"},
		{"warp zero", func(s *costmodel.Spec) { s.WarpSize = 0 }, "WarpSize 0 is below 1"},
		{"L1 sets", func(s *costmodel.Spec) { s.L1Sets = 6 }, "cache set count 6 is not a power of two"},
		{"L2 sets", func(s *costmodel.Spec) { s.L2Sets = 48 }, "cache set count 48 is not a power of two"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dev := NewDevice(SpecTest())
			spec := costmodel.SpecFor(dev.Spec().Name, dev.Spec().GlobalLatency, 16, 1_000, 500)
			c.edit(&spec)
			got := func() (msg string) {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				dev.SetCostModel(spec)
				return ""
			}()
			_, on := dev.CostModelSpec()
			switch {
			case c.want == "" && (got != "" || !on):
				t.Fatalf("valid spec rejected: %q", got)
			case c.want != "" && !strings.Contains(got, c.want):
				t.Fatalf("panic %q, want one containing %q", got, c.want)
			case c.want != "" && on:
				t.Fatal("a rejected spec left the cost model enabled")
			}
		})
	}
}

// drainWaitHook holds the pipeline consumer in its first batch until the
// launching goroutine has queued the drain marker behind the second full
// batch, that is, until the kernel body has returned and the launch has
// begun to close. A launch that charged its tail before the drain would
// have charged it by then, ahead of the queued second batch. Inline
// (without a pipeline) it holds nothing.
type drainWaitHook struct {
	dev     *Device
	batches int
}

func (h *drainWaitHook) OnAPI(*APIRecord) {}

func (h *drainWaitHook) OnAccessBatch(*APIRecord, []MemAccess) {
	if h.batches++; h.batches == 1 && h.dev.pipe != nil {
		for len(h.dev.pipe.tasks) < pipeDepth {
			runtime.Gosched()
		}
	}
}

// TestPipelinedCostChargesTailLast pins the order in which an armed device
// charges the cost model: every full batch on the consumer, in flush
// order, then the launch's partial last batch after the drain, which is
// the order the inline path charges access by access. The kernel's first
// batch sweeps a small buffer, its second evicts it from both caches, and
// its tail sweeps the small buffer again, so a tail charged before the
// queued second batch would hit in L1 and change the KernelCost.
func TestPipelinedCostChargesTailLast(t *testing.T) {
	run := func(pipelined bool) *costmodel.KernelCost {
		dev := NewDevice(SpecTest())
		dev.SetCostModel(costmodel.Spec{})
		hooks := &recordingHook{}
		dev.AddHook(&drainWaitHook{dev: dev})
		dev.AddHook(hooks)
		dev.SetPatchLevel(PatchFull)
		if pipelined {
			dev.StartPipelinedIngest()
			defer dev.StopPipelinedIngest()
		}
		small, err := dev.Malloc(1 << 10)
		if err != nil {
			t.Fatal(err)
		}
		large, err := dev.Malloc(32 << 10)
		if err != nil {
			t.Fatal(err)
		}
		err = dev.LaunchFunc(nil, "evict", Dim1(1), Dim1(32), func(ctx *ExecContext) {
			for i := 0; i < accessBatchSize; i++ {
				ctx.LoadF32(small + DevicePtr(4*(i%256)))
			}
			for i := 0; i < accessBatchSize; i++ {
				ctx.LoadF32(large + DevicePtr(8*i))
			}
			for i := 0; i < accessBatchSize/4; i++ {
				ctx.LoadF32(small + DevicePtr(4*(i%256)))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(hooks.batches); n != 3 {
			t.Fatalf("pipelined=%v: %d batches delivered, want 2 full and the tail", pipelined, n)
		}
		return hooks.apis[len(hooks.apis)-1].Cost
	}
	inline, piped := run(false), run(true)
	if inline == nil || inline.Total.MemTransactions == 0 {
		t.Fatal("the inline run modeled no DRAM traffic; test is vacuous")
	}
	if !reflect.DeepEqual(piped, inline) {
		t.Errorf("pipelined cost differs from inline:\n got %+v\nwant %+v", piped.Total, inline.Total)
	}
}
