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

// accessHarness builds a collector with 64 live 64 KiB objects, a
// counting sink, and one 4,096-record instrumented kernel batch over
// them. The collector has supplied the launch's table (LiveTable), as on
// a hit-flag launch. interleaved selects the access shape: runs of 64
// consecutive words per object (the locality structure of sweep kernels),
// or three operands read word by word in turn, so every same-object run
// is one access long. tagged records carry their object's tag the way the
// device writes it; untagged ones, as on a launch with overlapping rows,
// go through MemoryMap.Lookup.
func accessHarness(interleaved, tagged bool) (*Collector, *countingSink, *gpu.APIRecord, []gpu.MemAccess) {
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
	c.LiveTable()
	rec := &gpu.APIRecord{Index: nObj, Kind: gpu.APIKernel, Name: "k", Instrumented: true}
	batch := make([]gpu.MemAccess, batchLen)
	for i := range batch {
		obj, word := (i/64)%nObj, i%64
		if interleaved {
			obj, word = i%3, i/3
		}
		batch[i] = gpu.MemAccess{
			Addr:  gpu.DevicePtr(0x1000_0000 + obj*0x10000 + word*4),
			Size:  4,
			Space: gpu.SpaceGlobal,
		}
		if tagged {
			batch[i].Tag = ObjectTag(ObjectID(obj))
		}
	}
	return c, sink, rec, batch
}

// BenchmarkCollectorAccessBatch measures the full attribution path of an
// instrumented kernel's access stream: OnAccessBatch → a tag check per
// record (tagged) or a MemoryMap lookup into the collector's copy of the
// batch (untagged) → one sink call, with a sink that counts attributed
// accesses.
func BenchmarkCollectorAccessBatch(b *testing.B) {
	for _, shape := range []struct {
		name        string
		interleaved bool
	}{{"runs", false}, {"interleaved", true}} {
		for _, tagged := range []bool{true, false} {
			name := shape.name + "/untagged"
			if tagged {
				name = shape.name + "/tagged"
			}
			b.Run(name, func(b *testing.B) {
				c, sink, rec, batch := accessHarness(shape.interleaved, tagged)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.OnAccessBatch(rec, batch)
				}
				b.StopTimer()
				if sink.n != b.N*len(batch) {
					b.Fatalf("sink saw %d attributed accesses, want %d", sink.n, b.N*len(batch))
				}
				b.ReportMetric(float64(len(batch)), "accesses/op")
			})
		}
	}
}

// countingSink counts the attributed records it receives.
type countingSink struct{ n int }

func (s *countingSink) ObjectAccessBatch(rec *gpu.APIRecord, batch []gpu.MemAccess, objs []*Object) {
	for i := range batch {
		if batch[i].Tag != 0 {
			s.n++
		}
	}
}
