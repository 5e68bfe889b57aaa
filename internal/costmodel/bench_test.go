package costmodel

import "testing"

// BenchmarkTrackerAccess measures one Tracker.Access, flushes included,
// on the RTX 3090 geometry for each stride class of 4-byte accesses:
// unit (consecutive), strided (one per 128-byte line, 512 KiB, past the
// L2), irregular (a fixed scatter over 1 MiB) and broadcast (one
// address), and two shapes of the programs at the sweep's median: table
// (a fixed scatter over a 1 KiB table, huffman's codebook lookups) and
// column (a column walk of a 48×48 float32 matrix that wraps to the next
// column, the B operand of 2mm and 3mm). ns/op is ns per access.
func BenchmarkTrackerAccess(b *testing.B) {
	spec := SpecFor("NVIDIA GeForce RTX 3090 (sim)", 400, 24, 90_000, 40_000)
	const n = 1 << 12
	for _, shape := range []struct {
		name string
		addr func(i uint64) uint64
	}{
		{"unit", func(i uint64) uint64 { return i * 4 }},
		{"strided", func(i uint64) uint64 { return i * 128 }},
		{"irregular", func(i uint64) uint64 { return (i*6364136223846793005 + 1442695040888963407) >> 44 &^ 3 }},
		{"broadcast", func(uint64) uint64 { return 64 }},
		{"table", func(i uint64) uint64 { return (i*6364136223846793005 + 1442695040888963407) >> 54 &^ 3 }},
		{"column", func(i uint64) uint64 { return (i%48*48 + i/48%48) * 4 }},
	} {
		addrs := make([]uint64, n)
		for i := range addrs {
			addrs[i] = shape.addr(uint64(i))
		}
		b.Run(shape.name, func(b *testing.B) {
			tr := NewTracker(spec, NewCache(spec.L2Sets, spec.L2Ways), 1)
			tr.Access(0, addrs[0], 4) // the entry's first touch allocates
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Access(0, addrs[i&(n-1)], 4)
			}
		})
	}
}
