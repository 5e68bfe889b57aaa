// Optimize: the full profile → fix → re-profile loop the paper's case
// studies walk through (§7). A small stencil pipeline is profiled, every
// finding's suggestion is applied (deferred allocation, early free, buffer
// reuse, removal of an unused buffer and of a dead write), and the program
// is profiled again to quantify the improvement — the Table 4 methodology
// on a user program.
//
// Run it with:
//
//	go run ./examples/optimize
package main

import (
	"fmt"
	"log"

	"drgpum"
	"drgpum/gpusim"
)

const n = 16384 // grid cells (float32)

func main() {
	log.SetFlags(0)

	before := profile(runNaive)
	after := profile(runOptimized)

	fmt.Println("findings before optimization:")
	printFindings(before)
	fmt.Println("\nfindings after optimization:")
	printFindings(after)

	redPct := float64(before.MemStats.Peak-after.MemStats.Peak) / float64(before.MemStats.Peak) * 100
	fmt.Printf("\npeak device memory: %d -> %d bytes (%.0f%% reduction)\n",
		before.MemStats.Peak, after.MemStats.Peak, redPct)
	fmt.Printf("simulated time: %d -> %d cycles\n", before.Elapsed, after.Elapsed)
}

// profile runs a program variant under a fresh device and profiler.
func profile(run func(*gpusim.Device, *drgpum.Profiler)) *drgpum.Report {
	dev := gpusim.NewDevice(gpusim.SpecRTX3090())
	prof := drgpum.New(dev, drgpum.WithIntraObject())
	run(dev, prof)
	return prof.Finish()
}

// printFindings lists each finding on one line.
func printFindings(rep *drgpum.Report) {
	if len(rep.Findings) == 0 {
		fmt.Println("  (none)")
		return
	}
	for _, f := range rep.Findings {
		fmt.Printf("  %-28s %s\n", f.Pattern, rep.Trace.Object(f.Object).DisplayName())
	}
}

// runNaive is the original program: eager allocation, dead initialization,
// an unused halo buffer, batch frees.
func runNaive(dev *gpusim.Device, prof *drgpum.Profiler) {
	grid := alloc(dev, prof, "grid", n*4)
	next := alloc(dev, prof, "next", n*4)
	halo := alloc(dev, prof, "halo", 32<<10) //staticadv:allow unusedalloc
	out := alloc(dev, prof, "out", n*4)      //staticadv:allow lifetime

	check(dev.Memset(grid, 0, n*4, nil))        //staticadv:allow deadstore
	check(dev.MemcpyHtoD(grid, initial(), nil)) // ...fully overwritten here

	for step := 0; step < 3; step++ {
		stencil(dev, grid, next)
		grid, next = next, grid
	}
	copyKernel(dev, grid, out)

	sink := make([]byte, n*4)
	check(dev.MemcpyDtoH(sink, out, nil))

	check(dev.Free(grid))
	check(dev.Free(next))
	check(dev.Free(halo))
	check(dev.Free(out)) //staticadv:allow lifetime
}

// runOptimized applies every suggestion from the naive profile.
func runOptimized(dev *gpusim.Device, prof *drgpum.Profiler) {
	grid := alloc(dev, prof, "grid", n*4)
	next := alloc(dev, prof, "next", n*4)
	// halo: removed (unused allocation).
	// dead memset: removed.
	check(dev.MemcpyHtoD(grid, initial(), nil))

	for step := 0; step < 3; step++ {
		stencil(dev, grid, next)
		grid, next = next, grid
	}
	// out: the report's redundant-allocation pair said it can reuse the
	// retired ping-pong buffer.
	out := next
	copyKernel(dev, grid, out)
	check(dev.Free(grid)) // freed right after its last access

	sink := make([]byte, n*4)
	check(dev.MemcpyDtoH(sink, out, nil))
	check(dev.Free(out))
}

// alloc allocates and labels a buffer.
func alloc(dev *gpusim.Device, prof *drgpum.Profiler, name string, size uint64) gpusim.DevicePtr {
	ptr, err := dev.Malloc(size)
	check(err)
	prof.Annotate(ptr, name, 4)
	return ptr
}

// initial builds the starting grid.
func initial() []byte {
	b := make([]byte, n*4)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

// stencil runs one 3-point smoothing step.
func stencil(dev *gpusim.Device, src, dst gpusim.DevicePtr) {
	check(dev.LaunchFunc(nil, "stencil3", gpusim.Dim1(n/256), gpusim.Dim1(256),
		func(ctx *gpusim.ExecContext) {
			for i := 0; i < n; i++ {
				acc := ctx.LoadF32(src + gpusim.DevicePtr(i*4))
				if i > 0 {
					acc += ctx.LoadF32(src + gpusim.DevicePtr((i-1)*4))
				}
				if i < n-1 {
					acc += ctx.LoadF32(src + gpusim.DevicePtr((i+1)*4))
				}
				ctx.ComputeF32(3)
				ctx.StoreF32(dst+gpusim.DevicePtr(i*4), acc/3)
			}
		}))
}

// copyKernel materializes the result buffer.
func copyKernel(dev *gpusim.Device, src, dst gpusim.DevicePtr) {
	check(dev.LaunchFunc(nil, "gather", gpusim.Dim1(n/256), gpusim.Dim1(256),
		func(ctx *gpusim.ExecContext) {
			for i := 0; i < n; i++ {
				ctx.StoreF32(dst+gpusim.DevicePtr(i*4), ctx.LoadF32(src+gpusim.DevicePtr(i*4)))
			}
		}))
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
