package trace

import (
	"testing"

	"drgpum/internal/gpu"
)

// buildDevice wires a fresh device and collector at the given patch level.
func buildDevice(level gpu.PatchLevel) (*gpu.Device, *Collector) {
	dev := gpu.NewDevice(gpu.SpecTest())
	c := NewCollector()
	dev.SetLiveRangesProvider(c.LiveTable)
	dev.AddHook(c)
	dev.SetPatchLevel(level)
	return dev, c
}

func TestCollectorObjectLifecycle(t *testing.T) {
	dev, c := buildDevice(gpu.PatchAPI)

	p, _ := dev.Malloc(512)
	if !c.Annotate(p, "buf", 8) {
		t.Fatal("Annotate failed on a live object")
	}
	_ = dev.Memset(p, 0, 512, nil)
	_ = dev.Free(p)

	tr := c.Trace()
	if len(tr.Objects) != 1 {
		t.Fatalf("objects = %d", len(tr.Objects))
	}
	o := tr.Objects[0]
	if o.Label != "buf" || o.ElemSize != 8 || o.Size != 512 {
		t.Errorf("object = %+v", o)
	}
	if o.AllocAPI != 0 || o.FreeAPI != 2 || !o.Freed() {
		t.Errorf("lifetime = alloc %d free %d", o.AllocAPI, o.FreeAPI)
	}
	if len(o.Accesses) != 1 || !o.Accesses[0].Write || o.Accesses[0].Read {
		t.Errorf("accesses = %+v", o.Accesses)
	}
	if o.Elems() != 64 {
		t.Errorf("Elems = %d (512 bytes / 8)", o.Elems())
	}
	if len(tr.APIs) != 3 {
		t.Errorf("APIs = %d", len(tr.APIs))
	}
	if tr.APIs[1].Label() != "SET(0, 0)" {
		t.Errorf("label = %q", tr.APIs[1].Label())
	}
	if o.AllocPath == 0 {
		t.Error("allocation call path not captured")
	}
}

func TestCollectorAnnotateMisses(t *testing.T) {
	dev, c := buildDevice(gpu.PatchAPI)
	p, _ := dev.Malloc(64)
	if c.Annotate(p+8, "interior", 4) {
		t.Error("Annotate at an interior address must fail")
	}
	_ = dev.Free(p)
	if c.Annotate(p, "freed", 4) {
		t.Error("Annotate after free must fail")
	}
}

func TestCollectorAccessMerging(t *testing.T) {
	dev, c := buildDevice(gpu.PatchAPI)
	p, _ := dev.Malloc(1024)
	// One kernel both reads and writes the object: a single merged event.
	_ = dev.LaunchFunc(nil, "rw", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
		v := ctx.LoadU32(p)
		ctx.StoreU32(p+4, v+1)
	})
	o := c.Trace().Objects[0]
	if len(o.Accesses) != 1 {
		t.Fatalf("accesses = %+v, want one merged event", o.Accesses)
	}
	if !o.Accesses[0].Read || !o.Accesses[0].Write {
		t.Errorf("merged event = %+v", o.Accesses[0])
	}
	if o.Accesses[0].APIKind != gpu.APIKernel {
		t.Errorf("kind = %v", o.Accesses[0].APIKind)
	}
}

func TestCollectorPartialCopyAttribution(t *testing.T) {
	dev, c := buildDevice(gpu.PatchAPI)
	a, _ := dev.Malloc(1024)
	b, _ := dev.Malloc(1024)
	// A D2D copy touching only interior slices still attributes to the
	// whole objects (DrGPUM's object granularity).
	if err := dev.MemcpyDtoD(b+100, a+200, 64, nil); err != nil {
		t.Fatal(err)
	}
	oa, ob := c.Trace().Objects[0], c.Trace().Objects[1]
	if len(oa.Accesses) != 1 || !oa.Accesses[0].Read || oa.Accesses[0].Write {
		t.Errorf("source accesses = %+v", oa.Accesses)
	}
	if len(ob.Accesses) != 1 || !ob.Accesses[0].Write || ob.Accesses[0].Read {
		t.Errorf("destination accesses = %+v", ob.Accesses)
	}
	// Both sides resolve to the same API record.
	if oa.Accesses[0].API != ob.Accesses[0].API {
		t.Error("copy attributed to different API indices")
	}
}

func TestCollectorHostTraceModeMatchesHitFlags(t *testing.T) {
	run := func(mode gpu.ObjectIDMode) *Trace {
		dev := gpu.NewDevice(gpu.SpecTest())
		c := NewCollector()
		c.SetHostTraceMode(mode == gpu.ObjectIDHostTrace)
		dev.SetLiveRangesProvider(c.LiveTable)
		dev.AddHook(c)
		dev.SetObjectIDMode(mode)
		dev.SetPatchLevel(gpu.PatchAPI)

		a, _ := dev.Malloc(256)
		b, _ := dev.Malloc(256)
		_ = dev.LaunchFunc(nil, "k", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
			_ = ctx.LoadU32(a)
			ctx.StoreU32(b, 7)
		})
		_ = dev.Free(a)
		_ = dev.Free(b)
		return c.Trace()
	}

	hit := run(gpu.ObjectIDHitFlags)
	host := run(gpu.ObjectIDHostTrace)
	for i := range hit.Objects {
		ha, hb := hit.Objects[i].Accesses, host.Objects[i].Accesses
		if len(ha) != len(hb) {
			t.Fatalf("object %d: %d vs %d accesses across modes", i, len(ha), len(hb))
		}
		for j := range ha {
			if ha[j] != hb[j] {
				t.Errorf("object %d access %d differs: %+v vs %+v", i, j, ha[j], hb[j])
			}
		}
	}
}

func TestCollectorPoolSegment(t *testing.T) {
	dev, c := buildDevice(gpu.PatchAPI)

	seg, _ := dev.Malloc(4096)
	if !c.MarkPoolSegment(seg) {
		t.Fatal("MarkPoolSegment failed")
	}
	// Carve a "tensor" and surface it via the custom API.
	tensor := seg + 512
	dev.CustomAlloc("pool.alloc", tensor, 256)

	_ = dev.LaunchFunc(nil, "k", gpu.Dim1(1), gpu.Dim1(1), func(ctx *gpu.ExecContext) {
		ctx.StoreU32(tensor, 1)
	})
	dev.CustomFree("pool.free", tensor)

	tr := c.Trace()
	segObj, tenObj := tr.Objects[0], tr.Objects[1]
	if !segObj.PoolSegment {
		t.Error("segment not flagged")
	}
	if len(segObj.Accesses) != 0 {
		t.Errorf("segment received accesses: %+v (they belong to the tensor)", segObj.Accesses)
	}
	if !tenObj.Pool || len(tenObj.Accesses) != 1 || !tenObj.Accesses[0].Write {
		t.Errorf("tensor = %+v accesses %+v", tenObj, tenObj.Accesses)
	}
	if !tenObj.Freed() {
		t.Error("tensor free not recorded")
	}

	// The segment must not contribute to the data-object timeline.
	for _, a := range tr.APIs {
		a.Topo = a.Rec.Index
	}
	tl := tr.LiveBytesTimelineTo(uint64(len(tr.APIs) - 1))
	var maxBytes uint64
	for _, v := range tl {
		if v > maxBytes {
			maxBytes = v
		}
	}
	if maxBytes != 256 {
		t.Errorf("timeline peak = %d, want the tensor's 256", maxBytes)
	}
}

func TestLiveBytesTimeline(t *testing.T) {
	dev, c := buildDevice(gpu.PatchAPI)
	a, _ := dev.Malloc(100) // T0
	b, _ := dev.Malloc(200) // T1
	_ = dev.Free(a)         // T2
	_ = dev.Free(b)         // T3

	tr := c.Trace()
	for _, api := range tr.APIs {
		api.Topo = api.Rec.Index
	}
	tl := tr.LiveBytesTimelineTo(3)
	want := []uint64{100, 300, 200, 0}
	if len(tl) != len(want) {
		t.Fatalf("timeline = %v", tl)
	}
	for i := range want {
		if tl[i] != want[i] {
			t.Errorf("timeline[%d] = %d, want %d", i, tl[i], want[i])
		}
	}
}

func TestInterveningCounts(t *testing.T) {
	dev, c := buildDevice(gpu.PatchAPI)
	p, _ := dev.Malloc(64)        // index 0
	_ = dev.Memset(p, 0, 64, nil) // 1
	_ = dev.Memset(p, 1, 64, nil) // 2
	_ = dev.Free(p)               // 3

	tr := c.Trace()
	for _, api := range tr.APIs {
		api.Topo = api.Rec.Index
	}
	if got := tr.Intervening(0, 3); got != 2 {
		t.Errorf("Intervening(0,3) = %d, want 2", got)
	}
	if got := tr.Intervening(3, 0); got != 2 {
		t.Errorf("Intervening is not symmetric: %d", got)
	}
	if got := tr.Intervening(1, 2); got != 0 {
		t.Errorf("Intervening(adjacent) = %d", got)
	}
	if got := tr.Intervening(1, 1); got != 0 {
		t.Errorf("Intervening(same) = %d", got)
	}
}

func TestComputeStats(t *testing.T) {
	dev, c := buildDevice(gpu.PatchAPI)
	s1 := dev.CreateStream()
	a, _ := dev.Malloc(1000)
	b, _ := dev.Malloc(2000) // leaked, unused
	_ = dev.Memset(a, 0, 1000, nil)
	_ = dev.MemcpyHtoD(a, make([]byte, 500), s1)
	dev.CustomAlloc("pool.alloc", a+100, 8) // pool tensor inside a (just for counting)
	_ = dev.Free(a)
	_ = b

	st := ComputeStats(c.Trace())
	if st.ByKind[gpu.APIMalloc] != 3 || st.ByKind[gpu.APIFree] != 1 {
		t.Errorf("alloc/free counts = %d/%d", st.ByKind[gpu.APIMalloc], st.ByKind[gpu.APIFree])
	}
	if st.CopyBytes != 500 || st.SetBytes != 1000 {
		t.Errorf("copy/set bytes = %d/%d", st.CopyBytes, st.SetBytes)
	}
	if st.Streams != 2 {
		t.Errorf("streams = %d", st.Streams)
	}
	if st.PoolOps != 1 {
		t.Errorf("pool ops = %d", st.PoolOps)
	}
	// a freed, b and the pool tensor unfreed.
	if st.LeakedObjects != 2 || st.LeakedBytes != 2008 {
		t.Errorf("leaks = %d objects %d bytes", st.LeakedObjects, st.LeakedBytes)
	}
	if st.AccessedObjects != 1 {
		t.Errorf("accessed objects = %d", st.AccessedObjects)
	}
	if st.AllocBytes != 3008 || st.FreedBytes != 1000 {
		t.Errorf("alloc/freed bytes = %d/%d", st.AllocBytes, st.FreedBytes)
	}
}
