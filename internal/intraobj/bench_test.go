package intraobj

import (
	"testing"

	"drgpum/internal/gpu"
	"drgpum/internal/trace"
)

// benchObjects builds n standalone objects of elems u32 elements each at
// disjoint addresses, bypassing the device so the benchmark isolates the
// recorder's ingestion path.
func benchObjects(n, elems int) []*trace.Object {
	objs := make([]*trace.Object, n)
	for i := range objs {
		objs[i] = &trace.Object{
			ID:       trace.ObjectID(i),
			Ptr:      gpu.DevicePtr(0x1000_0000 + uint64(i)*uint64(elems)*4),
			Size:     uint64(elems) * 4,
			ElemSize: 4,
		}
	}
	return objs
}

// benchBatchLen is the device's access-batch length (gpu.accessBatchSize):
// the collector never hands the recorder a run longer than one batch.
const benchBatchLen = 4096

// sweep returns n accesses of width bytes each, walking o from its base.
func sweep(o *trace.Object, n, width int) []gpu.MemAccess {
	acc := make([]gpu.MemAccess, n)
	for i := range acc {
		acc[i] = gpu.MemAccess{Addr: o.Ptr + gpu.DevicePtr(i*width), Size: uint32(width), Space: gpu.SpaceGlobal}
	}
	return acc
}

// deliver hands one kernel's single-object access stream to the recorder
// the way Collector.OnAccessBatch does: one ObjectAccessRun per device
// batch.
func deliver(r *Recorder, o *trace.Object, rec *gpu.APIRecord, acc []gpu.MemAccess) {
	for len(acc) > 0 {
		n := min(len(acc), benchBatchLen)
		r.ObjectAccessRun(o, rec, acc[:n])
		acc = acc[n:]
	}
}

// BenchmarkRecorderIngest measures the recorder's access-ingestion hot path
// (same-object runs + per-API finalization), the dominant cost of
// intra-object profiling (paper §5.5, Figure 6's 3.5-4x overhead band).
func BenchmarkRecorderIngest(b *testing.B) {
	const elems = 1 << 14

	// pointwise: one element per access, sweeping the object — the shape of
	// an instrumented elementwise kernel.
	b.Run("pointwise", func(b *testing.B) {
		o := benchObjects(1, elems)[0]
		acc := sweep(o, elems, 4)
		r := NewRecorder(0)
		rec := &gpu.APIRecord{Kind: gpu.APIKernel, Name: "k", Instrumented: true}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Index = uint64(i)
			deliver(r, o, rec, acc)
		}
		b.StopTimer()
		r.Flush()
		b.ReportMetric(float64(elems), "accesses/op")
	})

	// ranged: each access covers a 1 KiB run of elements — the shape of
	// vectorized/coalesced kernels, where per-element map updates hurt most.
	b.Run("ranged", func(b *testing.B) {
		const span = 1024 // bytes per access = 256 elements
		o := benchObjects(1, elems)[0]
		acc := sweep(o, elems*4/span, span)
		r := NewRecorder(0)
		rec := &gpu.APIRecord{Kind: gpu.APIKernel, Name: "k", Instrumented: true}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Index = uint64(i)
			deliver(r, o, rec, acc)
		}
		b.StopTimer()
		r.Flush()
	})

	// host-spill: a capacity of one byte forces the host-side map-update
	// mode, exercising the spill buffer and its replay at finalization.
	b.Run("host-spill", func(b *testing.B) {
		o := benchObjects(1, elems)[0]
		acc := sweep(o, elems, 4)
		r := NewRecorder(1)
		rec := &gpu.APIRecord{Kind: gpu.APIKernel, Name: "k", Instrumented: true}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Index = uint64(i)
			deliver(r, o, rec, acc)
		}
		b.StopTimer()
		r.Flush()
	})

	// many-objects: 256 tracked objects but each kernel touches only one —
	// the per-API finalization cost must scale with the touched set, not
	// with every object ever seen.
	b.Run("many-objects", func(b *testing.B) {
		const nObj = 256
		objs := benchObjects(nObj, 256)
		acc := make([][]gpu.MemAccess, nObj)
		for i, o := range objs {
			acc[i] = sweep(o, 64, 4)
		}
		r := NewRecorder(0)
		rec := &gpu.APIRecord{Kind: gpu.APIKernel, Name: "k", Instrumented: true}
		// Register every object once so the tracked set is fully populated.
		for i, o := range objs {
			rec.Index = uint64(i)
			deliver(r, o, rec, acc[i][:1])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Index = uint64(nObj + i)
			deliver(r, objs[i%nObj], rec, acc[i%nObj])
		}
		b.StopTimer()
		r.Flush()
	})
}

// BenchmarkBitmapSetRange isolates the ranged bitmap update primitive.
func BenchmarkBitmapSetRange(b *testing.B) {
	bm := NewBitmap(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bm.SetRange(3, 1<<16-5)
	}
}
