package intraobj

import (
	"fmt"
	"math/rand"
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
// the collector hands the recorder one batch per call.
const benchBatchLen = 4096

// sweep returns n accesses of width bytes each, walking o from its base,
// tagged with o the way the collector hands them over.
func sweep(o *trace.Object, n, width int) []gpu.MemAccess {
	acc := make([]gpu.MemAccess, n)
	for i := range acc {
		acc[i] = gpu.MemAccess{Addr: o.Ptr + gpu.DevicePtr(i*width), Size: uint32(width), Space: gpu.SpaceGlobal, Tag: trace.ObjectTag(o.ID)}
	}
	return acc
}

// interleave returns n accesses of width bytes each that cycle through
// objs element by element (A[i], B[i], C[i], A[i+1], ...), the operand
// shape of `acc += A[i*N+k]*B[k*N+j]` kernels, where every same-object
// run is one access long.
func interleave(objs []*trace.Object, n, width int) []gpu.MemAccess {
	acc := make([]gpu.MemAccess, n)
	for i := range acc {
		o := objs[i%len(objs)]
		acc[i] = gpu.MemAccess{Addr: o.Ptr + gpu.DevicePtr(i/len(objs)*width), Size: uint32(width), Space: gpu.SpaceGlobal, Tag: trace.ObjectTag(o.ID)}
	}
	return acc
}

// deliver hands one kernel's access stream to the recorder the way
// Collector.OnAccessBatch does: one ObjectAccessBatch per device batch.
func deliver(r *Recorder, objs []*trace.Object, rec *gpu.APIRecord, acc []gpu.MemAccess) {
	for len(acc) > 0 {
		n := min(len(acc), benchBatchLen)
		r.ObjectAccessBatch(rec, acc[:n], objs)
		acc = acc[n:]
	}
}

// BenchmarkRecorderIngest measures the recorder's access-ingestion hot path
// (per-record state lookup and map update, plus per-API finalization), the
// dominant cost of intra-object profiling (paper §5.5, Figure 6's 3.5-4x
// overhead band).
func BenchmarkRecorderIngest(b *testing.B) {
	const elems = 1 << 14

	// run times one recorder over b.N kernels, each delivering acc.
	run := func(b *testing.B, capacity uint64, objs []*trace.Object, acc []gpu.MemAccess) {
		r := NewRecorder(capacity)
		rec := &gpu.APIRecord{Kind: gpu.APIKernel, Name: "k", Instrumented: true}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Index = uint64(i)
			deliver(r, objs, rec, acc)
		}
		b.StopTimer()
		r.Flush()
		b.ReportMetric(float64(len(acc)), "accesses/op")
	}

	// pointwise: one element per access, sweeping the object — the shape of
	// an instrumented elementwise kernel.
	b.Run("pointwise", func(b *testing.B) {
		objs := benchObjects(1, elems)
		run(b, 0, objs, sweep(objs[0], elems, 4))
	})

	// interleaved: three operands read element by element in turn, so
	// consecutive accesses never hit the same object.
	b.Run("interleaved", func(b *testing.B) {
		objs := benchObjects(3, elems)
		run(b, 0, objs, interleave(objs, elems, 4))
	})

	// ranged: each access covers a 1 KiB run of elements — the shape of
	// vectorized/coalesced kernels, where per-element map updates hurt most.
	b.Run("ranged", func(b *testing.B) {
		const span = 1024 // bytes per access = 256 elements
		objs := benchObjects(1, elems)
		run(b, 0, objs, sweep(objs[0], elems*4/span, span))
	})

	// host-spill: a capacity of one byte forces the host-side map-update
	// mode, exercising the spill buffer and its replay at finalization.
	b.Run("host-spill", func(b *testing.B) {
		objs := benchObjects(1, elems)
		run(b, 1, objs, sweep(objs[0], elems, 4))
	})

	// sparse-1M: a new recorder's first kernel, which touches 24 elements
	// at the front of a 1 Mi-element object, the shape of miniMDock's
	// pMem_conformations (paper §7.6): making the object's maps, not
	// updating them, is the cost.
	b.Run("sparse-1M", func(b *testing.B) {
		objs := benchObjects(1, 1<<20)
		acc := sweep(objs[0], 24, 4)
		rec := &gpu.APIRecord{Kind: gpu.APIKernel, Name: "k", Instrumented: true}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := NewRecorder(0)
			deliver(r, objs, rec, acc)
			r.Flush()
		}
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
		for i := range objs {
			rec.Index = uint64(i)
			deliver(r, objs, rec, acc[i][:1])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Index = uint64(nObj + i)
			deliver(r, objs, rec, acc[i%nObj])
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

// summarySink keeps BenchmarkSummarize's result live.
var summarySink summary

// BenchmarkSummarize measures summarize, the per-object reduction Seal
// stores at each free of a streamed run and Detect computes for every live
// object at Finish, over u32 objects of 4K and 64K elements. The
// unstructured objects are read at stride 1, 4 or 8 by four kernels, with
// the first half read once more, or at random elements four times per
// element on average; the structured object is read by eight kernels, each
// its own slice, slice k k+1 times. The sparse object has 1 Mi elements,
// of which three kernels read the first 24 (miniMDock's
// pMem_conformations).
func BenchmarkSummarize(b *testing.B) {
	shapes := []struct {
		name    string
		kernels func(o *trace.Object, elems int) [][]gpu.MemAccess
	}{
		{"stride1", stridedKernels(1)},
		{"stride4", stridedKernels(4)},
		{"stride8", stridedKernels(8)},
		{"random", func(o *trace.Object, elems int) [][]gpu.MemAccess {
			rng := rand.New(rand.NewSource(1))
			acc := make([]gpu.MemAccess, 4*elems)
			for i := range acc {
				acc[i] = elemRead(o, rng.Intn(elems))
			}
			return [][]gpu.MemAccess{acc}
		}},
		{"structured", func(o *trace.Object, elems int) [][]gpu.MemAccess {
			const slices = 8
			var ks [][]gpu.MemAccess
			for k := 0; k < slices; k++ {
				var acc []gpu.MemAccess
				for rep := 0; rep <= k; rep++ {
					for i := k * elems / slices; i < (k+1)*elems/slices; i++ {
						acc = append(acc, elemRead(o, i))
					}
				}
				ks = append(ks, acc)
			}
			return ks
		}},
	}
	// run times summarize over the state the kernels leave.
	run := func(b *testing.B, elems int, kernels func(o *trace.Object, elems int) [][]gpu.MemAccess, structured bool) {
		objs := benchObjects(1, elems)
		r := NewRecorder(0)
		for k, acc := range kernels(objs[0], elems) {
			deliver(r, objs, &gpu.APIRecord{Kind: gpu.APIKernel, Name: "k", Index: uint64(k), Instrumented: true}, acc)
		}
		r.Flush()
		st := r.state(0)
		if st.structured() != structured {
			b.Fatalf("structured() = %v", st.structured())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			summarySink = st.summarize()
		}
	}
	for _, elems := range []int{4 << 10, 64 << 10} {
		for _, shape := range shapes {
			b.Run(fmt.Sprintf("%dK/%s", elems>>10, shape.name), func(b *testing.B) {
				run(b, elems, shape.kernels, shape.name == "structured")
			})
		}
	}
	b.Run("1M/sparse", func(b *testing.B) {
		run(b, 1<<20, func(o *trace.Object, elems int) [][]gpu.MemAccess {
			acc := sweep(o, 24, 4)
			return [][]gpu.MemAccess{acc, acc, acc}
		}, false)
	})
}

// streamObjects returns the objects of a streamed training loop of n
// epochs: object 0, the weights, persists, and object k+1 is epoch k's
// activation. All are u32 objects; the weights and the first activation
// have elems elements, and the later activations vary in size between
// half that and elems.
func streamObjects(n, elems int) []*trace.Object {
	objs := make([]*trace.Object, n+1)
	var next gpu.DevicePtr = 0x1000_0000
	for i := range objs {
		size := elems
		if i > 1 {
			size -= (i * 997) % (elems / 2)
		}
		objs[i] = &trace.Object{ID: trace.ObjectID(i), Ptr: next, Size: uint64(size) * 4, ElemSize: 4}
		next += gpu.DevicePtr(size * 4)
	}
	return objs
}

// streamEpoch runs epoch k of the loop over objs as a streamed run does:
// one kernel reads the weights and the epoch's activation whole, then the
// activation is freed and its state sealed. rec and batch are reused
// across epochs.
func streamEpoch(r *Recorder, objs []*trace.Object, rec *gpu.APIRecord, batch []gpu.MemAccess, k int) {
	rec.Index = uint64(k)
	for i, o := range []*trace.Object{objs[0], objs[k+1]} {
		batch[i] = gpu.MemAccess{Addr: o.Ptr, Size: uint32(o.Size), Space: gpu.SpaceGlobal, Tag: trace.ObjectTag(o.ID)}
	}
	r.ObjectAccessBatch(rec, batch, objs)
	r.Seal(k + 1)
}

// BenchmarkSealReuse measures one epoch of a streamed training loop with
// activations of up to 64K u32 elements: ingesting its kernel, and
// sealing its activation, which hands the activation's maps to the next
// epoch's. Its allocations per op are the per-object bookkeeping, not the
// per-element maps.
func BenchmarkSealReuse(b *testing.B) {
	objs := streamObjects(b.N, 64<<10)
	r := NewRecorder(0)
	rec := &gpu.APIRecord{Kind: gpu.APIKernel, Name: "k", Instrumented: true}
	batch := make([]gpu.MemAccess, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		streamEpoch(r, objs, rec, batch, k)
	}
}

// stridedKernels returns four kernels that each read every stride-th
// element of an object; the first also reads the first half of those
// elements once more.
func stridedKernels(stride int) func(o *trace.Object, elems int) [][]gpu.MemAccess {
	return func(o *trace.Object, elems int) [][]gpu.MemAccess {
		var acc []gpu.MemAccess
		for i := 0; i < elems; i += stride {
			acc = append(acc, elemRead(o, i))
		}
		for i := 0; i < elems/2; i += stride {
			acc = append(acc, elemRead(o, i))
		}
		return [][]gpu.MemAccess{acc, acc[:elems/stride], acc[:elems/stride], acc[:elems/stride]}
	}
}

// elemRead is a read of element i of the u32 object o.
func elemRead(o *trace.Object, i int) gpu.MemAccess {
	return gpu.MemAccess{Addr: o.Ptr + gpu.DevicePtr(i*4), Size: 4, Space: gpu.SpaceGlobal, Tag: trace.ObjectTag(o.ID)}
}
