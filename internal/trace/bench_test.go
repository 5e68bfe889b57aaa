package trace

import (
	"testing"

	"drgpum/internal/gpu"
)

// benchMap builds a memory map of n live objects with 4 KiB ranges.
func benchMap(n int) *MemoryMap {
	m := NewMemoryMap()
	for i := 0; i < n; i++ {
		m.Insert(ObjectID(i), gpu.Range{Addr: gpu.DevicePtr(0x1000_0000 + i*0x1000), Size: 4096})
	}
	return m
}

// BenchmarkMemoryMapLookup measures object attribution, the per-access cost
// of the online collector. Kernel access streams have strong spatial
// locality (consecutive accesses usually hit the same object), which the
// "sweep" case models; "stride" defeats locality as a worst case.
func BenchmarkMemoryMapLookup(b *testing.B) {
	const nObj = 1024

	// sweep: walk every word of every object in order — the locality-heavy
	// common case of kernel batches.
	b.Run("sweep", func(b *testing.B) {
		m := benchMap(nObj)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			addr := gpu.DevicePtr(0x1000_0000 + (i%(nObj*1024))*4)
			if _, ok := m.Lookup(addr); !ok {
				b.Fatal("lookup miss")
			}
		}
	})

	// stride: jump to a different object every access.
	b.Run("stride", func(b *testing.B) {
		m := benchMap(nObj)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			addr := gpu.DevicePtr(0x1000_0000 + (i*0x1000)%(nObj*0x1000))
			if _, ok := m.Lookup(addr); !ok {
				b.Fatal("lookup miss")
			}
		}
	})
}

// BenchmarkCollectorAccessBatch measures the full attribution path of an
// instrumented kernel's access stream: OnAccessBatch → MemoryMap lookup →
// one sink call per same-object run, with a sink that counts attributed
// accesses.
func BenchmarkCollectorAccessBatch(b *testing.B) {
	const nObj = 64
	const batchLen = 4096

	c := NewCollector()
	for i := 0; i < nObj; i++ {
		c.OnAPI(&gpu.APIRecord{
			Index: uint64(i), Kind: gpu.APIMalloc,
			Ptr: gpu.DevicePtr(0x1000_0000 + i*0x10000), Size: 0x10000,
		})
	}
	sink := &countingSink{}
	c.SetSink(sink)

	rec := &gpu.APIRecord{Index: nObj, Kind: gpu.APIKernel, Name: "k", Instrumented: true}
	batch := make([]gpu.MemAccess, batchLen)
	for i := range batch {
		// Runs of 64 consecutive word accesses per object, then the next
		// object — the locality structure of real kernel batches.
		obj := (i / 64) % nObj
		word := i % 64
		batch[i] = gpu.MemAccess{
			Addr:  gpu.DevicePtr(0x1000_0000 + obj*0x10000 + word*4),
			Size:  4,
			Space: gpu.SpaceGlobal,
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.OnAccessBatch(rec, batch)
	}
	b.StopTimer()
	if sink.n == 0 {
		b.Fatal("sink saw no accesses")
	}
	b.ReportMetric(batchLen, "accesses/op")
}

type countingSink struct{ n int }

func (s *countingSink) ObjectAccessRun(o *Object, rec *gpu.APIRecord, run []gpu.MemAccess) {
	s.n += len(run)
}
