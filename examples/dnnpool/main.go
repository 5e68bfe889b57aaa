// Dnnpool: profile tensors served by a caching memory pool, the paper's
// §5.4 scenario. Deep-learning frameworks allocate tensors through custom
// pool APIs that GPU-level interception cannot see; DrGPUM's pool bridge
// (Profiler.AttachPool) restores per-tensor visibility, so the report
// speaks in tensors — including the framework-style bug planted here: a
// workspace tensor that is allocated every step but used only on the first
// one.
//
// Run it with:
//
//	go run ./examples/dnnpool
package main

import (
	"fmt"
	"log"
	"os"

	"drgpum"
	"drgpum/gpusim"
)

const tensorElems = 4096

func main() {
	log.SetFlags(0)

	dev := gpusim.NewDevice(gpusim.SpecA100())
	prof := drgpum.New(dev)

	pool := drgpum.NewPool(dev, 64<<10)
	prof.AttachPool(pool)

	weights := palloc(pool, prof, "weights")
	seed := make([]byte, tensorElems*4)
	for i := range seed {
		seed[i] = byte(3 * i)
	}
	check(dev.MemcpyHtoD(weights, seed, nil))

	// Training-style loop: activations come and go through the pool; the
	// "autotune workspace" is requested every step but consulted only on
	// step 0 — a per-step unused allocation.
	for step := 0; step < 4; step++ {
		act := palloc(pool, prof, fmt.Sprintf("act%d", step))
		ws := palloc(pool, prof, fmt.Sprintf("autotune_ws%d", step))

		useWS := step == 0
		check(dev.LaunchFunc(nil, "fused_layer", gpusim.Dim1(tensorElems/256), gpusim.Dim1(256),
			func(ctx *gpusim.ExecContext) {
				for i := 0; i < tensorElems; i++ {
					w := ctx.LoadU32(weights + gpusim.DevicePtr(i*4))
					if useWS {
						ctx.StoreU32(ws+gpusim.DevicePtr(i*4), w)
						w = ctx.LoadU32(ws + gpusim.DevicePtr(i*4))
					}
					ctx.StoreU32(act+gpusim.DevicePtr(i*4), w+uint32(i))
				}
			}))

		check(pool.Free(ws))
		check(pool.Free(act))
	}

	check(pool.Free(weights))
	check(pool.Release())

	report := prof.Finish()
	report.Render(os.Stdout, false)

	stats := pool.Stats()
	fmt.Printf("\npool: peak allocated %d bytes, peak reserved %d bytes, %d cache hits, %d misses\n",
		stats.PeakAllocated, stats.PeakReserved, stats.CacheHits, stats.CacheMisses)

	unused := 0
	for _, f := range report.Findings {
		if f.Pattern == drgpum.UnusedAllocation {
			unused++
		}
	}
	fmt.Printf("unused tensor allocations found: %d (the autotune workspaces of steps 1-3)\n", unused)
}

// palloc requests a tensor from the pool and labels it.
func palloc(pool *drgpum.Pool, prof *drgpum.Profiler, name string) gpusim.DevicePtr {
	ptr, err := pool.Alloc(tensorElems * 4)
	check(err)
	prof.Annotate(ptr, name, 4)
	return ptr
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
