package gpu

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestMemAccessIs24Bytes pins the access record's size: an armed device
// writes one per resolved access at either level, and the cost model's
// row fills the four bytes of padding the record already had.
func TestMemAccessIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(MemAccess{}); n != 24 {
		t.Errorf("MemAccess is %d bytes, want 24", n)
	}
}

func TestTypedLoadStoreRoundtrip(t *testing.T) {
	dev := NewDevice(SpecTest())
	p, _ := dev.Malloc(64)
	_ = dev.LaunchFunc(nil, "rt", Dim1(1), Dim1(1), func(ctx *ExecContext) {
		ctx.StoreF64(p, 3.14159)
		ctx.StoreF32(p+8, -2.5)
		ctx.StoreU32(p+12, 0xdeadbeef)
		ctx.StoreU8(p+16, 0x7f)

		if got := ctx.LoadF64(p); got != 3.14159 {
			t.Errorf("LoadF64 = %v", got)
		}
		if got := ctx.LoadF32(p + 8); got != -2.5 {
			t.Errorf("LoadF32 = %v", got)
		}
		if got := ctx.LoadU32(p + 12); got != 0xdeadbeef {
			t.Errorf("LoadU32 = %#x", got)
		}
		if got := ctx.LoadU8(p + 16); got != 0x7f {
			t.Errorf("LoadU8 = %#x", got)
		}
	})
}

func TestKernelDataVisibleToHost(t *testing.T) {
	dev := NewDevice(SpecTest())
	p, _ := dev.Malloc(8)
	_ = dev.LaunchFunc(nil, "w", Dim1(1), Dim1(1), func(ctx *ExecContext) {
		ctx.StoreF64(p, 42.5)
	})
	out := make([]byte, 8)
	if err := dev.MemcpyDtoH(out, p, nil); err != nil {
		t.Fatal(err)
	}
	bits := uint64(out[0]) | uint64(out[1])<<8 | uint64(out[2])<<16 | uint64(out[3])<<24 |
		uint64(out[4])<<32 | uint64(out[5])<<40 | uint64(out[6])<<48 | uint64(out[7])<<56
	if math.Float64frombits(bits) != 42.5 {
		t.Errorf("host sees %v", math.Float64frombits(bits))
	}
}

func TestOOBLoadsReturnZero(t *testing.T) {
	dev := NewDevice(SpecTest())
	p, _ := dev.Malloc(8)
	_ = dev.LaunchFunc(nil, "oob", Dim1(1), Dim1(1), func(ctx *ExecContext) {
		if got := ctx.LoadF64(p + 4096); got != 0 {
			t.Errorf("OOB load = %v, want 0", got)
		}
		buf := []byte{1, 2, 3, 4}
		ctx.Read(p+4096, buf)
		for _, b := range buf {
			if b != 0 {
				t.Errorf("OOB Read left %v", buf)
				break
			}
		}
	})
}

func TestSharedMemory(t *testing.T) {
	dev := NewDevice(SpecTest())
	p, _ := dev.Malloc(8)
	_ = dev.LaunchFunc(nil, "sh", Dim1(1), Dim1(32), func(ctx *ExecContext) {
		off := ctx.SharedAlloc(64)
		ctx.SharedStoreF32(off+4, 9.5)
		ctx.SharedStoreF64(off+8, -1.25)
		if got := ctx.SharedLoadF32(off + 4); got != 9.5 {
			t.Errorf("SharedLoadF32 = %v", got)
		}
		if got := ctx.SharedLoadF64(off + 8); got != -1.25 {
			t.Errorf("SharedLoadF64 = %v", got)
		}
		// Fresh shared allocations are zeroed.
		if got := ctx.SharedLoadF32(off); got != 0 {
			t.Errorf("fresh shared memory = %v", got)
		}
		ctx.StoreF64(p, ctx.SharedLoadF64(off+8))
	})
}

func TestHitFlagsProduceObjectReadWriteSets(t *testing.T) {
	dev := NewDevice(SpecTest())
	h := &recordingHook{}
	dev.AddHook(h)
	dev.SetPatchLevel(PatchAPI)

	a, _ := dev.Malloc(256)
	b, _ := dev.Malloc(256)
	c, _ := dev.Malloc(256) // untouched

	_ = dev.LaunchFunc(nil, "rw", Dim1(1), Dim1(1), func(ctx *ExecContext) {
		_ = ctx.LoadU32(a)       // read a
		ctx.StoreU32(b+128, 1)   // write b
		_ = ctx.LoadU32(b + 200) // and read b
	})

	kerl := h.byKind(APIKernel)[0]
	if len(kerl.Reads) != 2 {
		t.Fatalf("reads = %v, want ranges of a and b", kerl.Reads)
	}
	if kerl.Reads[0].Addr != a || kerl.Reads[1].Addr != b {
		t.Errorf("read set = %v", kerl.Reads)
	}
	if len(kerl.Writes) != 1 || kerl.Writes[0].Addr != b {
		t.Errorf("write set = %v", kerl.Writes)
	}
	for _, r := range append(kerl.Reads, kerl.Writes...) {
		if r.Addr == c {
			t.Error("untouched object appeared in the access sets")
		}
	}
}

func TestInstrumentFilterAndSampling(t *testing.T) {
	dev := NewDevice(SpecTest())
	h := &recordingHook{}
	dev.AddHook(h)
	dev.SetPatchLevel(PatchFull)
	// Instrument only "wanted", every 2nd launch.
	dev.SetInstrumentFilter(func(kernel string, launch uint64) bool {
		return kernel == "wanted" && launch%2 == 0
	})

	p, _ := dev.Malloc(64)
	body := func(ctx *ExecContext) { ctx.StoreU32(p, 1) }
	_ = dev.LaunchFunc(nil, "wanted", Dim1(1), Dim1(1), body) // launch 0: instrumented
	_ = dev.LaunchFunc(nil, "wanted", Dim1(1), Dim1(1), body) // launch 1: sampled out
	_ = dev.LaunchFunc(nil, "other", Dim1(1), Dim1(1), body)  // not whitelisted
	_ = dev.LaunchFunc(nil, "wanted", Dim1(1), Dim1(1), body) // launch 2: instrumented

	var instrumented int
	for _, rec := range h.byKind(APIKernel) {
		if rec.Instrumented {
			instrumented++
		}
	}
	if instrumented != 2 {
		t.Errorf("instrumented %d launches, want 2", instrumented)
	}
	if len(h.batches) != 2 {
		t.Errorf("got %d access batches, want 2", len(h.batches))
	}
	// Hit-flag object identification still works for sampled-out kernels.
	for _, rec := range h.byKind(APIKernel) {
		if len(rec.Writes) != 1 {
			t.Errorf("kernel %q launch: write set %v (object identification must not be sampled)", rec.Name, rec.Writes)
		}
	}
}

func TestAccessBatchKindsAndSpaces(t *testing.T) {
	dev := NewDevice(SpecTest())
	h := &recordingHook{}
	dev.AddHook(h)
	dev.SetPatchLevel(PatchFull)

	p, _ := dev.Malloc(64)
	_ = dev.LaunchFunc(nil, "v", Dim1(1), Dim1(1), func(ctx *ExecContext) {
		ctx.StoreU32(p, 77)
		_ = ctx.LoadU32(p)
		off := ctx.SharedAlloc(8)
		ctx.SharedStoreF64(off, 1)
	})

	if len(h.batches) != 1 {
		t.Fatalf("batches = %d", len(h.batches))
	}
	accs := h.batches[0]
	if len(accs) != 3 {
		t.Fatalf("got %d accesses, want 3", len(accs))
	}
	if accs[0].Kind != AccessWrite || accs[0].Space != SpaceGlobal {
		t.Errorf("store access = %+v", accs[0])
	}
	if accs[1].Kind != AccessRead || accs[1].Space != SpaceGlobal {
		t.Errorf("load access = %+v", accs[1])
	}
	if accs[2].Space != SpaceShared {
		t.Errorf("shared access space = %v", accs[2].Space)
	}
}

func TestAccessBatchFlushOnOverflow(t *testing.T) {
	dev := NewDevice(SpecTest())
	h := &recordingHook{}
	dev.AddHook(h)
	dev.SetPatchLevel(PatchFull)

	p, _ := dev.Malloc(8)
	n := accessBatchSize + 10
	_ = dev.LaunchFunc(nil, "many", Dim1(1), Dim1(1), func(ctx *ExecContext) {
		for i := 0; i < n; i++ {
			ctx.StoreU32(p, uint32(i))
		}
	})
	total := 0
	for _, b := range h.batches {
		total += len(b)
	}
	if total != n {
		t.Errorf("delivered %d accesses, want %d", total, n)
	}
	if len(h.batches) < 2 {
		t.Errorf("buffer overflow should force a mid-kernel flush; got %d batches", len(h.batches))
	}
}

func TestCostModelSharedVsGlobal(t *testing.T) {
	spec := SpecTest()
	run := func(shared bool) uint64 {
		dev := NewDevice(spec)
		p, _ := dev.Malloc(4096)
		_ = dev.LaunchFunc(nil, "k", Dim1(1), Dim1(1), func(ctx *ExecContext) {
			if shared {
				off := ctx.SharedAlloc(4096)
				for i := 0; i < 1000; i++ {
					ctx.SharedStoreF32(off, 1)
				}
			} else {
				for i := 0; i < 1000; i++ {
					ctx.StoreF32(p, 1)
				}
			}
		})
		return dev.Elapsed()
	}
	g, s := run(false), run(true)
	if s >= g {
		t.Errorf("shared-memory kernel (%d cycles) not faster than global (%d)", s, g)
	}
	// The gap must reflect the latency ratio.
	wantDelta := 1000 * (spec.GlobalLatency - spec.SharedLatency)
	if g-s != wantDelta {
		t.Errorf("cycle delta = %d, want %d", g-s, wantDelta)
	}
}

func TestCostModelPrecision(t *testing.T) {
	dev := NewDevice(SpecRTX3090())
	base := dev.Elapsed()
	_ = dev.LaunchFunc(nil, "fp", Dim1(1), Dim1(1), func(ctx *ExecContext) {
		ctx.ComputeF32(100)
		ctx.ComputeF64(100)
	})
	spec := dev.Spec()
	want := spec.LaunchCycles + 100*spec.FP32Cycles + 100*spec.FP64Cycles
	if got := dev.Elapsed() - base; got != want {
		t.Errorf("FP cost = %d cycles, want %d", got, want)
	}
}

func TestRangeHelpers(t *testing.T) {
	r := Range{Addr: 100, Size: 50}
	if !r.Contains(100) || !r.Contains(149) || r.Contains(150) || r.Contains(99) {
		t.Error("Contains boundary behaviour wrong")
	}
	if !r.Overlaps(Range{Addr: 149, Size: 10}) || r.Overlaps(Range{Addr: 150, Size: 10}) {
		t.Error("Overlaps boundary behaviour wrong")
	}

	// Property: Overlaps is symmetric and consistent with Contains.
	f := func(a1, s1, a2, s2 uint16) bool {
		ra := Range{Addr: DevicePtr(a1), Size: uint64(s1%512) + 1}
		rb := Range{Addr: DevicePtr(a2), Size: uint64(s2%512) + 1}
		if ra.Overlaps(rb) != rb.Overlaps(ra) {
			return false
		}
		// If rb's start is inside ra, they overlap.
		if ra.Contains(rb.Addr) && !ra.Overlaps(rb) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDim3Count(t *testing.T) {
	if got := (Dim3{X: 2, Y: 3, Z: 4}).Count(); got != 24 {
		t.Errorf("Count = %d", got)
	}
	if got := (Dim3{}).Count(); got != 1 {
		t.Errorf("zero Dim3 Count = %d, want 1", got)
	}
	if got := Dim1(7).Count(); got != 7 {
		t.Errorf("Dim1(7).Count = %d", got)
	}
}
