// Offline: record once, analyze many times — DrGPUM's online-collector /
// offline-analyzer split (paper §4) as a workflow. The program is profiled
// and saved to disk; the saved profile is then re-analyzed under two
// different temporary-idleness thresholds without re-running the program,
// exploiting that every §3 threshold is user-tunable.
//
// Run it with:
//
//	go run ./examples/offline
package main

import (
	"bytes"
	"fmt"
	"log"

	"drgpum"
	"drgpum/gpusim"
)

func main() {
	log.SetFlags(0)

	// --- record ---
	dev := gpusim.NewDevice(gpusim.SpecRTX3090())
	prof := drgpum.New(dev)

	staging := alloc(dev, prof, "staging", 32<<10) //staticadv:allow lifetime
	work := alloc(dev, prof, "work", 32<<10)       //staticadv:allow lifetime
	check(dev.MemcpyHtoD(staging, make([]byte, 32<<10), nil))
	// staging idles across exactly three APIs — under the default
	// significance bar (4), but reportable at a stricter setting.
	touch(dev, work)
	touch(dev, work)
	touch(dev, work)
	touch(dev, staging)
	check(dev.Free(staging))
	check(dev.Free(work)) //staticadv:allow lifetime

	report := prof.Finish()
	var saved bytes.Buffer
	check(report.SaveProfile(&saved))
	fmt.Printf("recorded %d GPU APIs into a %d-byte profile\n",
		len(report.Trace.APIs), saved.Len())

	// --- analyze offline, twice ---
	for _, threshold := range []int{4, 2} {
		cfg := drgpum.DefaultConfig()
		cfg.ObjLevel.IdlenessThreshold = threshold
		rep, err := drgpum.AnalyzeProfile(bytes.NewReader(saved.Bytes()), cfg)
		check(err)
		ti := 0
		for _, f := range rep.Findings {
			if f.Pattern == drgpum.TemporaryIdleness {
				ti++
			}
		}
		fmt.Printf("re-analysis with idleness threshold %d: %d finding(s), %d temporary-idleness\n",
			threshold, len(rep.Findings), ti)
	}
}

func alloc(dev *gpusim.Device, prof *drgpum.Profiler, name string, n uint64) gpusim.DevicePtr {
	p, err := dev.Malloc(n)
	check(err)
	prof.Annotate(p, name, 4)
	return p
}

func touch(dev *gpusim.Device, p gpusim.DevicePtr) {
	check(dev.LaunchFunc(nil, "touch", gpusim.Dim1(1), gpusim.Dim1(32),
		func(ctx *gpusim.ExecContext) { ctx.StoreU32(p, 1) })) //staticadv:allow deadstore
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
