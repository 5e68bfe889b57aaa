package gpu

import "testing"

// BenchmarkAllocatorChurn measures raw alloc/free throughput (the device
// allocation fast path under steady churn).
func BenchmarkAllocatorChurn(b *testing.B) {
	a := NewAllocator(64<<20, 256)
	var ptrs [64]DevicePtr
	for i := range ptrs {
		p, err := a.Alloc(4096)
		if err != nil {
			b.Fatal(err)
		}
		ptrs[i] = p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % len(ptrs)
		if err := a.Free(ptrs[slot]); err != nil {
			b.Fatal(err)
		}
		p, err := a.Alloc(uint64(256 * (1 + i%16)))
		if err != nil {
			b.Fatal(err)
		}
		ptrs[slot] = p
	}
}

// kernelAccessBench runs a fixed access volume at the given patch level to
// quantify per-access instrumentation cost — the microscopic version of
// Figure 6.
func kernelAccessBench(b *testing.B, level PatchLevel) {
	dev := NewDevice(SpecTest())
	if level != PatchNone {
		dev.AddHook(&recordingHook{})
	}
	dev.SetPatchLevel(level)
	buf, _ := dev.Malloc(64 << 10)
	const accesses = 16384
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dev.LaunchFunc(nil, "bench", Dim1(64), Dim1(256), func(ctx *ExecContext) {
			for j := 0; j < accesses; j++ {
				ctx.StoreU32(buf+DevicePtr((j%4096)*16), uint32(j))
			}
		})
	}
	b.ReportMetric(float64(accesses), "accesses/op")
}

func BenchmarkKernelAccessNative(b *testing.B)      { kernelAccessBench(b, PatchNone) }
func BenchmarkKernelAccessObjectLvl(b *testing.B)   { kernelAccessBench(b, PatchAPI) }
func BenchmarkKernelAccessIntraObject(b *testing.B) { kernelAccessBench(b, PatchFull) }

// BenchmarkKernelAccessInterleaved runs the s[j] += A[i][j]*r[i] shape of
// bicg-like kernels: every inner iteration reads A[i][j] and r[i] and
// reads and writes s[j], so consecutive accesses cycle through three
// objects and a shortcut that remembers only the previous access's row
// misses on three accesses of four.
func BenchmarkKernelAccessInterleaved(b *testing.B) {
	for _, level := range []PatchLevel{PatchNone, PatchAPI} {
		b.Run(level.String(), func(b *testing.B) {
			dev := NewDevice(SpecTest())
			if level != PatchNone {
				dev.AddHook(&recordingHook{})
			}
			dev.SetPatchLevel(level)
			const n = 64
			a, _ := dev.Malloc(n * n * 4)
			r, _ := dev.Malloc(n * 4)
			s, _ := dev.Malloc(n * 4)
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				_ = dev.LaunchFunc(nil, "interleaved", Dim1(1), Dim1(n), func(ctx *ExecContext) {
					for i := 0; i < n; i++ {
						for j := 0; j < n; j++ {
							sj := s + DevicePtr(4*j)
							v := ctx.LoadF32(a+DevicePtr(4*(i*n+j))) * ctx.LoadF32(r+DevicePtr(4*i))
							ctx.StoreF32(sj, ctx.LoadF32(sj)+v)
						}
					}
				})
			}
			b.ReportMetric(4*n*n, "accesses/op")
		})
	}
}

// BenchmarkHitFlagLookup measures the resolution cache's all-miss path:
// 512 live objects and a scatter that visits every one of them before it
// revisits any, so every access binary-searches the hit table.
func BenchmarkHitFlagLookup(b *testing.B) {
	dev := NewDevice(DeviceSpec{Name: "bench", MemoryCapacity: 64 << 20, Alignment: 256,
		CopyBytesPerCycle: 100})
	dev.AddHook(&recordingHook{})
	dev.SetPatchLevel(PatchAPI)
	var ptrs []DevicePtr
	for i := 0; i < 512; i++ {
		p, err := dev.Malloc(4096)
		if err != nil {
			b.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dev.LaunchFunc(nil, "scatter", Dim1(1), Dim1(32), func(ctx *ExecContext) {
			for j := 0; j < 1024; j++ {
				ctx.StoreU32(ptrs[(j*37)%len(ptrs)], uint32(j))
			}
		})
	}
}
