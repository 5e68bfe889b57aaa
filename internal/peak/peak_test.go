package peak

import (
	"testing"

	"drgpum/internal/depgraph"
	"drgpum/internal/gpu"
	"drgpum/internal/trace"
)

// build runs a program and returns its annotated trace.
func build(program func(dev *gpu.Device)) *trace.Trace {
	dev := gpu.NewDevice(gpu.SpecTest())
	c := trace.NewCollector()
	dev.SetLiveRangesProvider(c.LiveTable)
	dev.AddHook(c)
	dev.SetPatchLevel(gpu.PatchAPI)
	program(dev)
	tr := c.Trace()
	depgraph.Annotate(tr)
	return tr
}

// analyze mines the trace's full live-bytes timeline.
func analyze(tr *trace.Trace, topK int) *Analysis {
	var maxTopo uint64
	for _, a := range tr.APIs {
		maxTopo = max(maxTopo, a.Topo)
	}
	return AnalyzeTimeline(tr, topK, tr.LiveBytesTimelineTo(maxTopo))
}

func TestTwoPeaksIdentified(t *testing.T) {
	tr := build(func(dev *gpu.Device) {
		// Peak 1: a+b live (768 bytes), then dip, then peak 2: c (1024).
		a, _ := dev.Malloc(512)
		b, _ := dev.Malloc(256)
		_ = dev.Free(b)
		_ = dev.Free(a)
		c, _ := dev.Malloc(1024)
		_ = dev.Free(c)
	})
	an := analyze(tr, 2)
	if len(an.Peaks) != 2 {
		t.Fatalf("peaks = %+v", an.Peaks)
	}
	// Highest first.
	if an.Peaks[0].Bytes != 1024 || an.Peaks[1].Bytes != 768 {
		t.Errorf("peak bytes = %d, %d", an.Peaks[0].Bytes, an.Peaks[1].Bytes)
	}
	if an.PeakBytes != 1024 {
		t.Errorf("global peak = %d", an.PeakBytes)
	}
	// Live attribution: peak 2 has only c; peak 1 has a and b, largest
	// first.
	if len(an.Peaks[0].Live) != 1 || an.Peaks[0].Live[0] != 2 {
		t.Errorf("peak 1 live = %v", an.Peaks[0].Live)
	}
	if len(an.Peaks[1].Live) != 2 || an.Peaks[1].Live[0] != 0 || an.Peaks[1].Live[1] != 1 {
		t.Errorf("peak 2 live = %v (want a before b, larger first)", an.Peaks[1].Live)
	}
	if !an.OnPeak(0) || !an.OnPeak(2) {
		t.Error("OnPeak attribution wrong")
	}
}

func TestTopKLimit(t *testing.T) {
	tr := build(func(dev *gpu.Device) {
		for i := 0; i < 4; i++ {
			p, _ := dev.Malloc(uint64(256 * (i + 1)))
			_ = dev.Free(p)
		}
	})
	an := analyze(tr, 2)
	if len(an.Peaks) != 2 {
		t.Fatalf("topK not applied: %d peaks", len(an.Peaks))
	}
	if an.Peaks[0].Bytes != 1024 || an.Peaks[1].Bytes != 768 {
		t.Errorf("top-2 = %d, %d", an.Peaks[0].Bytes, an.Peaks[1].Bytes)
	}
}

func TestPlateauReportedOnce(t *testing.T) {
	tr := build(func(dev *gpu.Device) {
		p, _ := dev.Malloc(512)
		_ = dev.Memset(p, 0, 512, nil) // plateau: usage flat across APIs
		_ = dev.Memset(p, 1, 512, nil)
		_ = dev.Free(p)
	})
	an := analyze(tr, 4)
	if len(an.Peaks) != 1 {
		t.Fatalf("plateau produced %d peaks: %+v", len(an.Peaks), an.Peaks)
	}
	if an.Peaks[0].Topo != 0 {
		t.Errorf("plateau peak at T=%d, want its first timestamp", an.Peaks[0].Topo)
	}
}

func TestMonotonicGrowthSinglePeak(t *testing.T) {
	tr := build(func(dev *gpu.Device) {
		_, _ = dev.Malloc(256)
		_, _ = dev.Malloc(256)
		_, _ = dev.Malloc(256)
	})
	an := analyze(tr, 2)
	if len(an.Peaks) != 1 || an.Peaks[0].Bytes != 768 {
		t.Fatalf("peaks = %+v", an.Peaks)
	}
}

func TestEmptyTrace(t *testing.T) {
	tr := build(func(dev *gpu.Device) {})
	an := analyze(tr, 2)
	if len(an.Peaks) != 0 || an.PeakBytes != 0 {
		t.Errorf("empty trace analysis = %+v", an)
	}
}

func TestDefaultTopK(t *testing.T) {
	tr := build(func(dev *gpu.Device) {
		for i := 0; i < 5; i++ {
			p, _ := dev.Malloc(uint64(256 * (i + 1)))
			_ = dev.Free(p)
		}
	})
	an := analyze(tr, 0) // 0 selects the paper's default of 2
	if len(an.Peaks) != 2 {
		t.Errorf("default topK = %d peaks", len(an.Peaks))
	}
}
