package drgpum_test

import (
	"fmt"

	"drgpum"
	"drgpum/gpusim"
)

// Example_quickstart profiles a tiny program whose scratch buffer is never
// used, and prints the detected patterns.
func Example_quickstart() {
	dev := gpusim.NewDevice(gpusim.SpecRTX3090())
	prof := drgpum.New(dev, drgpum.WithIntraObject())

	data, _ := dev.Malloc(4096)
	prof.Annotate(data, "data", 4)
	scratch, _ := dev.Malloc(8192)
	prof.Annotate(scratch, "scratch", 4)

	_ = dev.MemcpyHtoD(data, make([]byte, 4096), nil)
	_ = dev.LaunchFunc(nil, "double", gpusim.Dim1(4), gpusim.Dim1(256),
		func(ctx *gpusim.ExecContext) {
			for i := 0; i < 1024; i++ {
				addr := data + gpusim.DevicePtr(i*4)
				ctx.StoreU32(addr, ctx.LoadU32(addr)*2)
			}
		})
	_ = dev.Free(data)
	_ = dev.Free(scratch)

	report := prof.Finish()
	for _, p := range report.PatternSet() {
		fmt.Println(p)
	}
	// Output:
	// Early Allocation
	// Unused Allocation
}

// Example_suggestions shows the actionable guidance attached to a finding.
func Example_suggestions() {
	dev := gpusim.NewDevice(gpusim.SpecA100())
	prof := drgpum.New(dev)

	buf, _ := dev.Malloc(1024)
	prof.Annotate(buf, "results", 4)
	// The buffer is zeroed twice in a row: a dead write.
	_ = dev.Memset(buf, 0, 1024, nil)
	_ = dev.MemcpyHtoD(buf, make([]byte, 1024), nil)
	_ = dev.LaunchFunc(nil, "use", gpusim.Dim1(1), gpusim.Dim1(32),
		func(ctx *gpusim.ExecContext) { _ = ctx.LoadU32(buf) })
	_ = dev.Free(buf)

	report := prof.Finish()
	for _, f := range report.FindingsForObject("results") {
		if f.Pattern == drgpum.DeadWrite {
			fmt.Println(f.Suggestion)
		}
	}
	// Output:
	// results is written by SET(0, 0) and overwritten by CPY(0, 0) with no intervening access. The first write is dead; remove it.
}

// Example_pool profiles tensors served by a caching memory pool: the
// profiler sees individual tensors, not the pool's backing segments.
func Example_pool() {
	dev := gpusim.NewDevice(gpusim.SpecA100())
	prof := drgpum.New(dev)
	pool := drgpum.NewPool(dev, 64<<10)
	prof.AttachPool(pool)

	t1, _ := pool.Alloc(4096)
	prof.Annotate(t1, "activations", 4)
	_ = dev.MemcpyHtoD(t1, make([]byte, 4096), nil)
	_ = pool.Free(t1)
	_ = pool.Release()

	report := prof.Finish()
	for _, o := range report.Trace.Objects {
		if o.Pool {
			fmt.Printf("%s: %d bytes, freed=%v\n", o.Label, o.Size, o.Freed())
		}
	}
	// Output:
	// activations: 4096 bytes, freed=true
}
