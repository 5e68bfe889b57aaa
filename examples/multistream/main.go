// Multistream: profile a two-stream copy/compute pipeline and export the
// Perfetto GUI trace, reproducing the paper's SimpleMultiCopy workflow
// (§7.1 / Figure 7) on a user-written program.
//
// The program double-buffers four batches across two streams. Its setup
// order leaves the first input idle across several APIs and allocates both
// outputs long before their kernels — exactly the inefficiencies the
// report and the exported timeline highlight.
//
// Run it with:
//
//	go run ./examples/multistream
//
// then open multistream.json at https://ui.perfetto.dev.
package main

import (
	"fmt"
	"log"
	"os"

	"drgpum"
	"drgpum/gpusim"
)

const batch = 8192 // uint32 elements per batch

func main() {
	log.SetFlags(0)

	dev := gpusim.NewDevice(gpusim.SpecA100())
	prof := drgpum.New(dev, drgpum.WithIntraObject())
	s1 := dev.CreateStream()

	// Eager setup: all four buffers up front.
	in0 := alloc(dev, prof, "in0")
	out0 := alloc(dev, prof, "out0")
	in1 := alloc(dev, prof, "in1")
	out1 := alloc(dev, prof, "out1")

	// Four batches, ping-ponging across streams.
	results := make([][]byte, 4)
	for b := 0; b < 4; b++ {
		host := makeBatch(b)
		in, out, stream := in0, out0, (*gpusim.Stream)(nil)
		if b%2 == 1 {
			in, out, stream = in1, out1, s1
		}
		check(dev.MemcpyHtoD(in, host, stream))
		launchScale(dev, stream, in, out)
		results[b] = make([]byte, batch*4)
		check(dev.MemcpyDtoH(results[b], out, stream))
	}
	dev.Synchronize()

	check(dev.Free(in0))
	check(dev.Free(out0))
	check(dev.Free(in1))
	check(dev.Free(out1))

	report := prof.Finish()
	report.Render(os.Stdout, false)

	// Verify the pipeline's math before trusting the profile.
	for b := 0; b < 4; b++ {
		want := makeBatch(b)
		for i := 0; i < batch; i++ {
			lo := uint32(want[i*4]) | uint32(want[i*4+1])<<8 |
				uint32(want[i*4+2])<<16 | uint32(want[i*4+3])<<24
			got := uint32(results[b][i*4]) | uint32(results[b][i*4+1])<<8 |
				uint32(results[b][i*4+2])<<16 | uint32(results[b][i*4+3])<<24
			if got != lo*3 {
				log.Fatalf("batch %d elem %d: got %d want %d", b, i, got, lo*3)
			}
		}
	}

	f, err := os.Create("multistream.json")
	check(err)
	check(report.Export(f, drgpum.FormatGUI))
	check(f.Close())
	fmt.Println("\nwrote multistream.json — open it at https://ui.perfetto.dev")
}

// alloc grabs one batch-sized buffer and labels it for the report.
func alloc(dev *gpusim.Device, prof *drgpum.Profiler, name string) gpusim.DevicePtr {
	ptr, err := dev.Malloc(batch * 4)
	check(err)
	prof.Annotate(ptr, name, 4)
	return ptr
}

// makeBatch builds batch b's host payload.
func makeBatch(b int) []byte {
	host := make([]byte, batch*4)
	for i := 0; i < batch; i++ {
		v := uint32(b*1000 + i)
		host[i*4] = byte(v)
		host[i*4+1] = byte(v >> 8)
		host[i*4+2] = byte(v >> 16)
		host[i*4+3] = byte(v >> 24)
	}
	return host
}

// launchScale runs out[i] = in[i] * 3 on the given stream.
func launchScale(dev *gpusim.Device, s *gpusim.Stream, in, out gpusim.DevicePtr) {
	check(dev.LaunchFunc(s, "scale3", gpusim.Dim1(batch/256), gpusim.Dim1(256),
		func(ctx *gpusim.ExecContext) {
			for i := 0; i < batch; i++ {
				v := ctx.LoadU32(in + gpusim.DevicePtr(i*4))
				ctx.StoreU32(out+gpusim.DevicePtr(i*4), v*3)
			}
		}))
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
