package objlevel

import (
	"testing"

	"drgpum/internal/depgraph"
	"drgpum/internal/gpu"
	"drgpum/internal/pattern"
	"drgpum/internal/trace"
)

// run executes a program and returns the annotated trace plus findings.
func run(t *testing.T, cfg Config, program func(dev *gpu.Device)) (*trace.Trace, []pattern.Finding) {
	t.Helper()
	dev := gpu.NewDevice(gpu.SpecTest())
	c := trace.NewCollector()
	dev.SetLiveRangesProvider(c.LiveTable)
	dev.AddHook(c)
	dev.SetPatchLevel(gpu.PatchAPI)
	program(dev)
	tr := c.Trace()
	depgraph.Annotate(tr)
	return tr, Detect(tr, Accumulate(tr, cfg))
}

// findingsOf filters by pattern.
func findingsOf(fs []pattern.Finding, p pattern.Pattern) []pattern.Finding {
	var out []pattern.Finding
	for _, f := range fs {
		if f.Pattern == p {
			out = append(out, f)
		}
	}
	return out
}

// touch launches a trivial kernel writing one word of ptr.
func touch(dev *gpu.Device, ptr gpu.DevicePtr) {
	_ = dev.LaunchFunc(nil, "touch", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
		ctx.StoreU32(ptr, 1)
	})
}

func TestEarlyAllocation(t *testing.T) {
	_, fs := run(t, DefaultConfig(), func(dev *gpu.Device) {
		early, _ := dev.Malloc(256) // T0
		other, _ := dev.Malloc(256) // T1: intervening API
		touch(dev, other)           // T2
		touch(dev, early)           // T3: first access, 2 APIs late
		_ = dev.Free(early)
		_ = dev.Free(other)
	})
	ea := findingsOf(fs, pattern.EarlyAllocation)
	if len(ea) != 1 {
		t.Fatalf("EA findings = %+v, want exactly one (the early object)", ea)
	}
	if ea[0].Object != 0 || ea[0].Distance != 3 {
		t.Errorf("EA = %+v, want object 0 distance 3", ea[0])
	}
	if len(ea[0].APIs) != 2 || ea[0].APIs[0] != 0 || ea[0].APIs[1] != 3 {
		t.Errorf("EA evidence APIs = %v", ea[0].APIs)
	}
}

func TestNoEarlyAllocationWhenAdjacent(t *testing.T) {
	_, fs := run(t, DefaultConfig(), func(dev *gpu.Device) {
		p, _ := dev.Malloc(256)
		touch(dev, p) // immediately used
		_ = dev.Free(p)
	})
	if ea := findingsOf(fs, pattern.EarlyAllocation); len(ea) != 0 {
		t.Errorf("false positive EA: %+v", ea)
	}
}

func TestLateDeallocation(t *testing.T) {
	_, fs := run(t, DefaultConfig(), func(dev *gpu.Device) {
		late, _ := dev.Malloc(256)
		touch(dev, late)            // last access (T1)
		other, _ := dev.Malloc(256) // intervening
		touch(dev, other)
		_ = dev.Free(other) // other is freed tightly: no LD for it
		_ = dev.Free(late)  // 3 APIs after its last access (T5)
	})
	ld := findingsOf(fs, pattern.LateDeallocation)
	if len(ld) != 1 || ld[0].Object != 0 {
		t.Fatalf("LD findings = %+v", ld)
	}
	if ld[0].Distance != 4 {
		t.Errorf("LD distance = %d, want 4", ld[0].Distance)
	}
}

func TestNoLateDeallocationWhenAdjacent(t *testing.T) {
	_, fs := run(t, DefaultConfig(), func(dev *gpu.Device) {
		p, _ := dev.Malloc(256)
		touch(dev, p)
		_ = dev.Free(p) // freed immediately after last access
	})
	if ld := findingsOf(fs, pattern.LateDeallocation); len(ld) != 0 {
		t.Errorf("false positive LD: %+v", ld)
	}
}

func TestUnusedAllocationAndLeak(t *testing.T) {
	tr, fs := run(t, DefaultConfig(), func(dev *gpu.Device) {
		unused, _ := dev.Malloc(512)
		used, _ := dev.Malloc(256)
		touch(dev, used)
		_ = dev.Free(used)
		_ = unused // leaked AND unused
	})
	ua := findingsOf(fs, pattern.UnusedAllocation)
	if len(ua) != 1 || ua[0].Object != 0 || ua[0].WastedBytes != 512 {
		t.Fatalf("UA findings = %+v", ua)
	}
	ml := findingsOf(fs, pattern.MemoryLeak)
	if len(ml) != 1 || ml[0].Object != 0 {
		t.Fatalf("ML findings = %+v", ml)
	}
	if tr.Object(0).Freed() {
		t.Error("leaked object marked freed")
	}
}

func TestTemporaryIdlenessThreshold(t *testing.T) {
	program := func(gapAPIs int) func(dev *gpu.Device) {
		return func(dev *gpu.Device) {
			p, _ := dev.Malloc(256)
			o, _ := dev.Malloc(256)
			touch(dev, p)
			for i := 0; i < gapAPIs; i++ {
				touch(dev, o)
			}
			touch(dev, p)
			_ = dev.Free(p)
			_ = dev.Free(o)
		}
	}
	cfg := Config{IdlenessThreshold: 2, RedundantSizeTolerance: 0.10}

	_, fs := run(t, cfg, program(2))
	ti := findingsOf(fs, pattern.TemporaryIdleness)
	tiForObject0 := 0
	for _, f := range ti {
		if f.Object == 0 {
			tiForObject0++
			if len(f.Windows) != 1 || f.Windows[0].Intervening != 2 {
				t.Errorf("TI windows = %+v", f.Windows)
			}
		}
	}
	if tiForObject0 != 1 {
		t.Fatalf("TI for gap=2 at X=2: %+v", ti)
	}

	_, fs = run(t, cfg, program(1))
	for _, f := range findingsOf(fs, pattern.TemporaryIdleness) {
		if f.Object == 0 {
			t.Errorf("TI fired below threshold: %+v", f)
		}
	}
}

func TestTemporaryIdlenessMultipleWindows(t *testing.T) {
	cfg := Config{IdlenessThreshold: 2, RedundantSizeTolerance: 0.10}
	_, fs := run(t, cfg, func(dev *gpu.Device) {
		p, _ := dev.Malloc(256)
		o, _ := dev.Malloc(256)
		touch(dev, p)
		touch(dev, o)
		touch(dev, o) // gap 1: 2 APIs
		touch(dev, p)
		touch(dev, o)
		touch(dev, o)
		touch(dev, o) // gap 2: 3 APIs
		touch(dev, p)
		_ = dev.Free(p)
		_ = dev.Free(o)
	})
	for _, f := range findingsOf(fs, pattern.TemporaryIdleness) {
		if f.Object != 0 {
			continue
		}
		if len(f.Windows) != 2 {
			t.Fatalf("windows = %+v, want both idle gaps", f.Windows)
		}
		// The evidencing APIs pick the widest window.
		if f.Windows[1].Intervening != 3 || f.Distance != 4 {
			t.Errorf("widest window not selected: %+v (distance %d)", f.Windows, f.Distance)
		}
		return
	}
	t.Fatal("no TI finding for object 0")
}

func TestDeadWriteDetection(t *testing.T) {
	_, fs := run(t, DefaultConfig(), func(dev *gpu.Device) {
		p, _ := dev.Malloc(256)
		_ = dev.Memset(p, 0, 256, nil)                // dead
		_ = dev.MemcpyHtoD(p, make([]byte, 256), nil) // kills it
		touch(dev, p)
		_ = dev.Free(p)
	})
	dw := findingsOf(fs, pattern.DeadWrite)
	if len(dw) != 1 {
		t.Fatalf("DW findings = %+v", dw)
	}
	if dw[0].APIs[0] != 1 || dw[0].APIs[1] != 2 {
		t.Errorf("DW evidence = %v, want the SET and the CPY", dw[0].APIs)
	}
}

func TestNoDeadWriteWhenKernelIntervenes(t *testing.T) {
	_, fs := run(t, DefaultConfig(), func(dev *gpu.Device) {
		p, _ := dev.Malloc(256)
		_ = dev.Memset(p, 0, 256, nil)
		touch(dev, p) // a kernel access between the two writes
		_ = dev.MemcpyHtoD(p, make([]byte, 256), nil)
		_ = dev.Free(p)
	})
	if dw := findingsOf(fs, pattern.DeadWrite); len(dw) != 0 {
		t.Errorf("false positive DW: %+v", dw)
	}
}

func TestNoDeadWriteForKernelOverwrite(t *testing.T) {
	// A kernel overwriting a memset is NOT a Definition 3.7 dead write
	// (only copy/set pairs qualify).
	_, fs := run(t, DefaultConfig(), func(dev *gpu.Device) {
		p, _ := dev.Malloc(256)
		_ = dev.Memset(p, 0, 256, nil)
		touch(dev, p) // kernel write
		_ = dev.Free(p)
	})
	if dw := findingsOf(fs, pattern.DeadWrite); len(dw) != 0 {
		t.Errorf("false positive DW on kernel write: %+v", dw)
	}
}

// TestFigure3RedundantAllocation reproduces the paper's Figure 3 schedule:
// four equal-sized objects whose access windows are
//
//	O1: [A1, A5]   O2: [A2, A7]   O3: [A5, A8]   O4: [A6, A9]
//
// The one-pass algorithm must recommend that O4 reuses O1 (O1's last API
// A5 ties with O3's first API A5, and the tie-break places first-APIs
// before last-APIs, so O3 may not reuse O1 — but O4, whose first API A6 is
// strictly later, may).
func TestFigure3RedundantAllocation(t *testing.T) {
	tr, fs := run(t, DefaultConfig(), func(dev *gpu.Device) {
		o1, _ := dev.Malloc(1024)
		o2, _ := dev.Malloc(1024)
		o3, _ := dev.Malloc(1024)
		o4, _ := dev.Malloc(1024)
		touch(dev, o1) // A1: first(O1)
		touch(dev, o2) // A2: first(O2)
		// A5 in the figure accesses both O1 (last) and O3 (first): a single
		// kernel touching both gives them the same timestamp.
		_ = dev.LaunchFunc(nil, "a5", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
			ctx.StoreU32(o1, 1)
			ctx.StoreU32(o3, 1)
		})
		touch(dev, o4) // A6: first(O4)
		touch(dev, o2) // A7: last(O2)
		touch(dev, o3) // A8: last(O3)
		touch(dev, o4) // A9: last(O4)
		_ = dev.Free(o1)
		_ = dev.Free(o2)
		_ = dev.Free(o3)
		_ = dev.Free(o4)
	})

	ra := findingsOf(fs, pattern.RedundantAllocation)
	if len(ra) != 1 {
		t.Fatalf("RA findings = %+v, want exactly one pair", ra)
	}
	f := ra[0]
	if tr.Object(f.Object).Ptr == 0 || !f.HasPartner {
		t.Fatalf("RA = %+v", f)
	}
	// O4 (object ID 3) reuses O1 (object ID 0).
	if f.Object != 3 || f.Partner != 0 {
		t.Errorf("RA pair = O%d reuses O%d, want O4 reuses O1 (IDs 3 and 0)", f.Object+1, f.Partner+1)
	}
}

func TestRedundantAllocationSizeTolerance(t *testing.T) {
	program := func(size2 uint64) func(dev *gpu.Device) {
		return func(dev *gpu.Device) {
			a, _ := dev.Malloc(1000)
			touch(dev, a) // a's window closes here
			b, _ := dev.Malloc(size2)
			touch(dev, b)
			_ = dev.Free(a)
			_ = dev.Free(b)
		}
	}
	// Within 10%: reuse recommended.
	_, fs := run(t, DefaultConfig(), program(1050))
	if ra := findingsOf(fs, pattern.RedundantAllocation); len(ra) != 1 {
		t.Errorf("RA within tolerance: %+v", ra)
	}
	// Outside 10%: no recommendation.
	_, fs = run(t, DefaultConfig(), program(1500))
	if ra := findingsOf(fs, pattern.RedundantAllocation); len(ra) != 0 {
		t.Errorf("RA outside tolerance: %+v", ra)
	}
}

func TestRedundantAllocationNeedsDisjointWindows(t *testing.T) {
	_, fs := run(t, DefaultConfig(), func(dev *gpu.Device) {
		a, _ := dev.Malloc(1024)
		b, _ := dev.Malloc(1024)
		touch(dev, a)
		touch(dev, b) // b starts before a's last access
		touch(dev, a)
		_ = dev.Free(a)
		_ = dev.Free(b)
	})
	if ra := findingsOf(fs, pattern.RedundantAllocation); len(ra) != 0 {
		t.Errorf("RA on overlapping windows: %+v", ra)
	}
}

func TestDonorConsumedOnlyOnce(t *testing.T) {
	// Two later objects could both reuse the early one; only the first
	// (closest) gets it — the donor turns Reused.
	_, fs := run(t, DefaultConfig(), func(dev *gpu.Device) {
		a, _ := dev.Malloc(1024)
		touch(dev, a)
		b, _ := dev.Malloc(1024)
		touch(dev, b)
		c, _ := dev.Malloc(1024)
		touch(dev, c)
		_ = dev.Free(a)
		_ = dev.Free(b)
		_ = dev.Free(c)
	})
	ra := findingsOf(fs, pattern.RedundantAllocation)
	// b reuses a; c reuses b (chained), but a must not be recommended twice.
	donors := map[trace.ObjectID]int{}
	for _, f := range ra {
		donors[f.Partner]++
	}
	for donor, n := range donors {
		if n > 1 {
			t.Errorf("donor %d recommended %d times", donor, n)
		}
	}
	if len(ra) != 2 {
		t.Errorf("RA chain = %+v, want 2 pairs", ra)
	}
}

func TestCleanProgramHasNoFindings(t *testing.T) {
	// Allocate at first use, free at last use, no gaps: nothing to report
	// (the paper's no-false-positive property).
	_, fs := run(t, DefaultConfig(), func(dev *gpu.Device) {
		p, _ := dev.Malloc(256)
		touch(dev, p)
		_ = dev.Free(p)
		q, _ := dev.Malloc(4096) // different size: no RA pairing
		touch(dev, q)
		_ = dev.Free(q)
	})
	// The second malloc window starts after the first's end with compatible
	// sizing excluded; only RA could plausibly fire and it must not.
	if len(fs) != 0 {
		t.Errorf("clean program produced findings: %+v", fs)
	}
}

func TestPoolSegmentsSkipped(t *testing.T) {
	dev := gpu.NewDevice(gpu.SpecTest())
	c := trace.NewCollector()
	dev.SetLiveRangesProvider(c.LiveTable)
	dev.AddHook(c)
	dev.SetPatchLevel(gpu.PatchAPI)

	seg, _ := dev.Malloc(8192)
	c.MarkPoolSegment(seg)
	// The segment is never freed and never "accessed" — but it must not be
	// reported: its lifecycle belongs to the pool.
	tr := c.Trace()
	depgraph.Annotate(tr)
	fs := Detect(tr, Accumulate(tr, DefaultConfig()))
	if len(fs) != 0 {
		t.Errorf("pool segment produced findings: %+v", fs)
	}
}
