package advisor

import (
	"slices"
	"testing"

	"drgpum/internal/depgraph"
	"drgpum/internal/gpu"
	"drgpum/internal/objlevel"
	"drgpum/internal/pattern"
	"drgpum/internal/trace"
)

// analyze runs a program and returns its annotated trace plus object-level
// findings.
func analyze(program func(dev *gpu.Device)) (*trace.Trace, []pattern.Finding) {
	dev := gpu.NewDevice(gpu.SpecTest())
	c := trace.NewCollector()
	dev.SetLiveRangesProvider(c.LiveTable)
	dev.AddHook(c)
	dev.SetPatchLevel(gpu.PatchAPI)
	program(dev)
	tr := c.Trace()
	depgraph.Annotate(tr)
	return tr, objlevel.Detect(tr, objlevel.Accumulate(tr, objlevel.DefaultConfig()))
}

func touch(dev *gpu.Device, ptr gpu.DevicePtr) {
	_ = dev.LaunchFunc(nil, "t", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
		ctx.StoreU32(ptr, 1)
	})
}

func TestAdviseUnusedRemoval(t *testing.T) {
	tr, fs := analyze(func(dev *gpu.Device) {
		used, _ := dev.Malloc(1000)
		unused, _ := dev.Malloc(3000)
		touch(dev, used)
		_ = dev.Free(used)
		_ = dev.Free(unused)
	})
	est := Advise(tr, fs)
	if est.OriginalPeak != 4000 {
		t.Fatalf("original peak = %d", est.OriginalPeak)
	}
	if est.EstimatedPeak != 1000 {
		t.Errorf("estimated peak = %d, want the unused 3000 gone", est.EstimatedPeak)
	}
	if est.RemovedBytes != 3000 {
		t.Errorf("removed = %d", est.RemovedBytes)
	}
	if est.ReductionPct != 75 {
		t.Errorf("reduction = %g", est.ReductionPct)
	}
}

func TestAdviseLifetimeTightening(t *testing.T) {
	// Two 1000-byte objects used back to back but with overlapping slack:
	// tight lifetimes halve the peak.
	tr, fs := analyze(func(dev *gpu.Device) {
		a, _ := dev.Malloc(1000)
		b, _ := dev.Malloc(1000) // early: first used after a is done
		touch(dev, a)
		touch(dev, a)
		touch(dev, b)
		touch(dev, b)
		_ = dev.Free(a) // late: a's last access was long ago
		_ = dev.Free(b)
	})
	est := Advise(tr, fs)
	if est.OriginalPeak != 2000 {
		t.Fatalf("original = %d", est.OriginalPeak)
	}
	if est.EstimatedPeak != 1000 {
		t.Errorf("estimated = %d, want tight lifetimes to stop overlapping", est.EstimatedPeak)
	}
}

func TestAdviseIdleOffload(t *testing.T) {
	// p idles across a big phase that allocates q; offloading p during the
	// gap means they never coexist.
	tr, fs := analyze(func(dev *gpu.Device) {
		p, _ := dev.Malloc(2000)
		touch(dev, p)
		q, _ := dev.Malloc(2000)
		touch(dev, q)
		touch(dev, q)
		touch(dev, q)
		touch(dev, q)
		_ = dev.Free(q)
		touch(dev, p)
		_ = dev.Free(p)
	})
	est := Advise(tr, fs)
	if est.OriginalPeak != 4000 {
		t.Fatalf("original = %d", est.OriginalPeak)
	}
	if est.EstimatedPeak >= 4000 {
		t.Errorf("estimated = %d; the idle window was not exploited", est.EstimatedPeak)
	}
}

func TestAdviseShrinkFromSizingFindings(t *testing.T) {
	tr, fs := analyze(func(dev *gpu.Device) {
		p, _ := dev.Malloc(10000)
		touch(dev, p)
		_ = dev.Free(p)
	})
	// Synthesize an overallocation finding (intra-object detection needs
	// PatchFull; the advisor only consumes the finding).
	fs = append(fs, pattern.Finding{
		Pattern:     pattern.Overallocation,
		Object:      0,
		WastedBytes: 9000,
	})
	est := Advise(tr, fs)
	if est.EstimatedPeak != 1000 {
		t.Errorf("estimated = %d, want the object shrunk to 1000", est.EstimatedPeak)
	}
	if est.ShrunkBytes != 9000 {
		t.Errorf("shrunk = %d", est.ShrunkBytes)
	}
}

func TestAdviseCleanProgramUnchanged(t *testing.T) {
	tr, fs := analyze(func(dev *gpu.Device) {
		p, _ := dev.Malloc(1000)
		touch(dev, p)
		_ = dev.Free(p)
	})
	if len(fs) != 0 {
		t.Fatalf("clean program produced findings: %+v", fs)
	}
	est := Advise(tr, fs)
	if est.EstimatedPeak != est.OriginalPeak {
		t.Errorf("clean program changed: %d -> %d", est.OriginalPeak, est.EstimatedPeak)
	}
}

func TestSubtract(t *testing.T) {
	ivs := []interval{{start: 0, end: 10}}
	got := subtract(ivs, interval{start: 3, end: 5})
	if len(got) != 2 || got[0] != (interval{0, 3}) || got[1] != (interval{5, 10}) {
		t.Errorf("split = %+v", got)
	}
	got = subtract(got, interval{start: 0, end: 3})
	if len(got) != 1 || got[0] != (interval{5, 10}) {
		t.Errorf("prefix removal = %+v", got)
	}
	got = subtract(got, interval{start: 20, end: 30})
	if len(got) != 1 {
		t.Errorf("disjoint gap changed intervals: %+v", got)
	}
	got = subtract(got, interval{start: 0, end: 100})
	if len(got) != 0 {
		t.Errorf("covering gap left intervals: %+v", got)
	}
}

// TestSubtractAllSmallCases checks the in-place subtract against point
// sets: every set of maximal runs over [0, 10) minus every gap within
// [0, 12) must leave exactly the runs of the remaining points.
func TestSubtractAllSmallCases(t *testing.T) {
	const width = 10
	runs := func(mask uint) []interval {
		var out []interval
		for x := uint64(0); x < width; x++ {
			if mask&(1<<x) == 0 {
				continue
			}
			if n := len(out); n > 0 && out[n-1].end == x {
				out[n-1].end++
			} else {
				out = append(out, interval{start: x, end: x + 1})
			}
		}
		return out
	}
	for mask := uint(0); mask < 1<<width; mask++ {
		for a := uint64(0); a < width+2; a++ {
			for b := uint64(0); b < width+2; b++ {
				want := mask
				for x := a; x < b && x < width; x++ {
					want &^= 1 << x
				}
				got := subtract(runs(mask), interval{start: a, end: b})
				if !slices.Equal(got, runs(want)) {
					t.Fatalf("runs(%b) minus [%d, %d) = %v, want %v", mask, a, b, got, runs(want))
				}
			}
		}
	}
}

func TestMarginalSavings(t *testing.T) {
	tr, fs := analyze(func(dev *gpu.Device) {
		// big is pure waste sitting on the peak; removing it alone cuts
		// the peak by its full size.
		big, _ := dev.Malloc(8000)
		small, _ := dev.Malloc(1000)
		touch(dev, small)
		_ = dev.Free(small)
		_ = dev.Free(big)
	})
	savings := MarginalSavings(tr, fs)
	if len(savings) != len(fs) {
		t.Fatalf("savings = %d entries for %d findings", len(savings), len(fs))
	}
	for i, f := range fs {
		switch f.Pattern {
		case pattern.UnusedAllocation:
			if savings[i] != 8000 {
				t.Errorf("UA savings = %d, want 8000", savings[i])
			}
		}
	}
	// Empty input.
	if got := MarginalSavings(tr, nil); len(got) != 0 {
		t.Errorf("nil findings savings = %v", got)
	}
}

// TestMarginalSavingsAllocsPerFinding pins that pricing a finding
// allocates nothing: eight times the findings cost the same allocations.
func TestMarginalSavingsAllocsPerFinding(t *testing.T) {
	tr, fs := analyze(func(dev *gpu.Device) {
		p, _ := dev.Malloc(2000)
		unused, _ := dev.Malloc(500)
		touch(dev, p)
		q, _ := dev.Malloc(2000)
		touch(dev, q)
		touch(dev, q)
		_ = dev.Free(q)
		touch(dev, p)
		_ = dev.Free(unused)
		_ = dev.Free(p)
	})
	var many []pattern.Finding
	for i := 0; i < 8; i++ {
		many = append(many, fs...)
	}
	few := testing.AllocsPerRun(10, func() { MarginalSavings(tr, fs) })
	lots := testing.AllocsPerRun(10, func() { MarginalSavings(tr, many) })
	if lots != few {
		t.Errorf("%d findings: %v allocs; %d findings: %v allocs", len(fs), few, len(many), lots)
	}
}

// BenchmarkAdvise measures the what-if analysis on a mid-size trace: the
// aggregate estimate and the per-finding marginal savings.
func BenchmarkAdvise(b *testing.B) {
	dev := gpu.NewDevice(gpu.SpecRTX3090())
	c := trace.NewCollector()
	dev.SetLiveRangesProvider(c.LiveTable)
	dev.AddHook(c)
	dev.SetPatchLevel(gpu.PatchAPI)
	var live []gpu.DevicePtr
	for i := 0; i < 400; i++ {
		p, err := dev.Malloc(uint64(256 * (1 + i%5)))
		if err != nil {
			b.Fatal(err)
		}
		live = append(live, p)
		if i%2 == 0 {
			touch(dev, p)
		}
		if i%3 == 2 {
			_ = dev.Free(live[0])
			live = live[1:]
		}
	}
	tr := c.Trace()
	depgraph.Annotate(tr)
	fs := objlevel.Detect(tr, objlevel.Accumulate(tr, objlevel.DefaultConfig()))
	b.Run("estimate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			est := Advise(tr, fs)
			if est.OriginalPeak == 0 {
				b.Fatal("empty estimate")
			}
		}
		b.ReportMetric(float64(len(fs)), "findings")
	})
	b.Run("marginal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if s := MarginalSavings(tr, fs); len(s) != len(fs) {
				b.Fatal("savings missing")
			}
		}
		b.ReportMetric(float64(len(fs)), "findings")
	})
}
