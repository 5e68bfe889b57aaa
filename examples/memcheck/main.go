// Memcheck: catch memory-safety bugs in a GPU program.
//
// Setting Config.Memcheck attaches a compute-sanitizer-style checker next
// to the profiler: the device allocator grows red zones around every
// allocation and a quarantine of freed ranges, and the report gains a
// memory-safety section. This program plants three bugs — an off-by-one
// kernel write, a read of a freed buffer, and a buffer that is never freed
// — and the report pins each to its allocation and launch call sites.
//
// Run it with:
//
//	go run ./examples/memcheck
package main

import (
	"fmt"
	"log"
	"os"

	"drgpum"
	"drgpum/gpusim"
)

func main() {
	log.SetFlags(0)

	dev := gpusim.NewDevice(gpusim.SpecRTX3090())
	cfg := drgpum.IntraObjectConfig()
	cfg.Memcheck = true
	prof := drgpum.New(dev, drgpum.WithConfig(cfg))

	const n = 256

	data, err := dev.Malloc(n * 4) //staticadv:allow lifetime
	check(err)
	prof.Annotate(data, "data", 4)

	temp, err := dev.Malloc(n * 4) //staticadv:allow lifetime
	check(err)
	prof.Annotate(temp, "temp", 4)

	orphan, err := dev.Malloc(16 << 10) //staticadv:allow unusedalloc
	check(err)
	prof.Annotate(orphan, "orphan", 4)

	host := make([]byte, n*4)
	for i := range host {
		host[i] = byte(i)
	}
	check(dev.MemcpyHtoD(data, host, nil))
	check(dev.MemcpyHtoD(temp, host, nil))

	// Bug 1: the loop bound is n, but shifting by one writes element i+1 —
	// the last store lands one element past the end of data, inside the red
	// zone memcheck reserved there.
	check(dev.LaunchFunc(nil, "shift_right", gpusim.Dim1(1), gpusim.Dim1(n),
		func(ctx *gpusim.ExecContext) {
			for i := 0; i < n; i++ {
				v := ctx.LoadU32(data + gpusim.DevicePtr(i*4))
				ctx.StoreU32(data+gpusim.DevicePtr((i+1)*4), v)
			}
		}))

	// Bug 2: temp is freed before the kernel that still reads it. The
	// quarantine keeps the stale range unmapped, so every read faults.
	check(dev.Free(temp))
	check(dev.LaunchFunc(nil, "sum_temp", gpusim.Dim1(1), gpusim.Dim1(n),
		func(ctx *gpusim.ExecContext) {
			var sum uint32
			for i := 0; i < n; i++ {
				sum += ctx.LoadU32(temp + gpusim.DevicePtr(i*4))
			}
			ctx.StoreU32(data, sum)
		}))

	out := make([]byte, n*4)
	check(dev.MemcpyDtoH(out, data, nil))
	check(dev.Free(data))
	// Bug 3: orphan is never freed.

	report := prof.Finish()
	check(report.Memcheck.Render(os.Stdout))

	fmt.Printf("\nmemcheck issues: %d (leaked %d bytes)\n",
		len(report.Memcheck.Issues), report.Memcheck.LeakBytes)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
