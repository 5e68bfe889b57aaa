// Quickstart: profile a 30-line GPU program and read DrGPUM's findings.
//
// The program contains three textbook inefficiencies — an early allocation,
// an unused allocation, and a late deallocation — and the report calls out
// all three with concrete suggestions.
//
// Run it with:
//
//	go run ./examples/quickstart
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
	prof := drgpum.New(dev, drgpum.WithIntraObject())

	const n = 1024

	// results is allocated long before the kernel that first touches it.
	results, err := dev.Malloc(n * 4) //staticadv:allow lifetime
	check(err)
	prof.Annotate(results, "results", 4)

	// scratch is allocated and never used by any GPU API.
	scratch, err := dev.Malloc(64 << 10) //staticadv:allow unusedalloc
	check(err)
	prof.Annotate(scratch, "scratch", 4)

	// input is staged, consumed once, and then kept alive to the very end.
	input, err := dev.Malloc(n * 4)
	check(err)
	prof.Annotate(input, "input", 4)

	host := make([]byte, n*4)
	for i := range host {
		host[i] = byte(i)
	}
	check(dev.MemcpyHtoD(input, host, nil))

	check(dev.LaunchFunc(nil, "square", gpusim.Dim1(n/256), gpusim.Dim1(256),
		func(ctx *gpusim.ExecContext) {
			for i := 0; i < n; i++ {
				v := ctx.LoadU32(input + gpusim.DevicePtr(i*4))
				ctx.StoreU32(results+gpusim.DevicePtr(i*4), v*v)
			}
		}))

	out := make([]byte, n*4)
	check(dev.MemcpyDtoH(out, results, nil))

	// Everything is freed in a batch at the end — the late-deallocation
	// anti-pattern.
	check(dev.Free(results))
	check(dev.Free(scratch))
	check(dev.Free(input)) //staticadv:allow lifetime

	report := prof.Finish()
	report.Render(os.Stdout, false)

	fmt.Printf("\npeak device memory: %d bytes; findings: %d\n",
		report.MemStats.Peak, len(report.Findings))
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
